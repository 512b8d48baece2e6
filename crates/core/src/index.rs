//! Secondary indexes. The paper frames the optimizer as choosing among
//! physical access paths supplied by adapters via rules and cost (§5);
//! this module supplies the access paths: ordered (sorted-permutation,
//! binary-search) and hash indexes over any positionally-addressable
//! store, plus the planner-side seek description ([`SeekSpec`]) and the
//! execution-side bound probe ([`BoundProbe`]).
//!
//! The machinery is backend-neutral: it reads table data through
//! [`KeyAccess`], which the chunked [`crate::store::Version`] under
//! `MemTable` and memdb implements. Indexes are maintained incrementally
//! (motivated by the constant-delay-under-updates line of work) rather
//! than rebuilt per write: a delta costs O(|delta| · log n) binary
//! searches, plus one pass over the index only when a DELETE moves the
//! rows behind it.

use crate::datum::{insert_sorted, remove_sorted, Datum, Row};
use crate::error::{CalciteError, Result};
use crate::rex::RexNode;
use crate::txn::{DeltaOutcome, NetDelta};
use std::collections::HashMap;
use std::sync::Arc;

/// Physical shape of an index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// A permutation of row positions sorted by the key columns
    /// (B-tree-style): supports point, prefix and range seeks.
    Ordered,
    /// Key → positions map: full-key equality probes only.
    Hash,
}

impl IndexKind {
    pub fn name(&self) -> &'static str {
        match self {
            IndexKind::Ordered => "ordered",
            IndexKind::Hash => "hash",
        }
    }
}

/// Catalog description of one index: a name, the key columns (base-table
/// field positions, significant order) and the physical kind.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexDef {
    pub name: String,
    pub columns: Vec<usize>,
    pub kind: IndexKind,
}

impl IndexDef {
    pub fn ordered(name: impl Into<String>, columns: Vec<usize>) -> IndexDef {
        IndexDef {
            name: name.into(),
            columns,
            kind: IndexKind::Ordered,
        }
    }

    pub fn hash(name: impl Into<String>, columns: Vec<usize>) -> IndexDef {
        IndexDef {
            name: name.into(),
            columns,
            kind: IndexKind::Hash,
        }
    }

    /// Stable text form for plan digests and EXPLAIN.
    pub fn digest(&self) -> String {
        let cols: Vec<String> = self.columns.iter().map(|c| format!("${c}")).collect();
        format!("{}:{}[{}]", self.name, self.kind.name(), cols.join(","))
    }
}

/// Positional access to table data, the surface indexes are built over and
/// probed against. `datum` may be called for any column (not just key
/// columns): seek results gather full rows through it.
pub trait KeyAccess {
    fn len(&self) -> usize;
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    fn arity(&self) -> usize;
    fn datum(&self, row: usize, col: usize) -> Datum;

    /// The full row at position `row`.
    fn row(&self, row: usize) -> Row {
        (0..self.arity()).map(|c| self.datum(row, c)).collect()
    }
}

/// A shared snapshot reads like the data it pins.
impl<T: KeyAccess + ?Sized> KeyAccess for Arc<T> {
    fn len(&self) -> usize {
        (**self).len()
    }

    fn arity(&self) -> usize {
        (**self).arity()
    }

    fn datum(&self, row: usize, col: usize) -> Datum {
        (**self).datum(row, col)
    }

    fn row(&self, row: usize) -> Row {
        (**self).row(row)
    }
}

/// Borrowed [`KeyAccess`] over a row slice: the few rows a transaction
/// staged, or one row checked against a probe.
pub struct RowsRef<'a> {
    pub rows: &'a [Row],
    pub arity: usize,
}

impl KeyAccess for RowsRef<'_> {
    fn len(&self) -> usize {
        self.rows.len()
    }

    fn arity(&self) -> usize {
        self.arity
    }

    fn datum(&self, row: usize, col: usize) -> Datum {
        self.rows[row][col].clone()
    }
}

/// A seek probe with concrete values, produced by binding a [`SeekProbe`]
/// at execution time. `eq` constrains the leading key columns; the
/// optional bounds constrain the key column right after the `eq` prefix.
/// SQL comparison semantics apply: a NULL in a key column never matches,
/// and a NULL bound value matches nothing.
#[derive(Debug, Clone, Default)]
pub struct BoundProbe {
    pub eq: Vec<Datum>,
    pub lower: Option<(Datum, bool)>,
    pub upper: Option<(Datum, bool)>,
}

impl BoundProbe {
    pub fn point(eq: Vec<Datum>) -> BoundProbe {
        BoundProbe {
            eq,
            lower: None,
            upper: None,
        }
    }

    /// Whether the probe can match anything at all (no NULL constants).
    fn satisfiable(&self) -> bool {
        !self.eq.iter().any(Datum::is_null)
            && !matches!(&self.lower, Some((d, _)) if d.is_null())
            && !matches!(&self.upper, Some((d, _)) if d.is_null())
    }

    /// Row-level form of the probe predicate, used by fallback paths (and
    /// tests) to evaluate the probe without an index. Must agree exactly
    /// with what [`IndexData::probe`] returns.
    pub fn matches(&self, data: &dyn KeyAccess, row: usize, def: &IndexDef) -> bool {
        if !self.satisfiable() {
            return false;
        }
        for (i, want) in self.eq.iter().enumerate() {
            let v = data.datum(row, def.columns[i]);
            if v.is_null() || v != *want {
                return false;
            }
        }
        if self.lower.is_none() && self.upper.is_none() {
            return true;
        }
        let Some(col) = def.columns.get(self.eq.len()) else {
            return false;
        };
        let v = data.datum(row, *col);
        if v.is_null() {
            return false;
        }
        if let Some((b, inclusive)) = &self.lower {
            if if *inclusive { v < *b } else { v <= *b } {
                return false;
            }
        }
        if let Some((b, inclusive)) = &self.upper {
            if if *inclusive { v > *b } else { v >= *b } {
                return false;
            }
        }
        true
    }
}

#[derive(Debug, Clone)]
enum IndexState {
    /// Row positions sorted by (key, position). Equal keys keep ascending
    /// positions, so range segments stream in table order.
    Ordered(Vec<usize>),
    /// Key → ascending positions. Keys containing NULL are not stored:
    /// no equality probe can match them.
    Hash(HashMap<Vec<Datum>, Vec<usize>>),
}

/// One index instance over some table data. The data itself is *not*
/// owned: callers pass the matching [`KeyAccess`] to every operation, so
/// a copy-on-write snapshot of the table snapshots the index with it.
#[derive(Debug, Clone)]
pub struct IndexData {
    pub def: IndexDef,
    state: IndexState,
}

impl IndexData {
    /// Builds the index over the current contents of `data`.
    pub fn build(def: IndexDef, data: &dyn KeyAccess) -> Result<IndexData> {
        if def.columns.is_empty() {
            return Err(CalciteError::validate(format!(
                "index '{}' has no key columns",
                def.name
            )));
        }
        for c in &def.columns {
            if *c >= data.arity() {
                return Err(CalciteError::validate(format!(
                    "index '{}' key column {c} out of range",
                    def.name
                )));
            }
        }
        let n = data.len();
        let state = match def.kind {
            IndexKind::Ordered => {
                let keys: Vec<Vec<Datum>> = (0..n).map(|r| key_of(data, &def.columns, r)).collect();
                let mut perm: Vec<usize> = (0..n).collect();
                perm.sort_by(|a, b| keys[*a].cmp(&keys[*b]).then(a.cmp(b)));
                IndexState::Ordered(perm)
            }
            IndexKind::Hash => {
                let mut map: HashMap<Vec<Datum>, Vec<usize>> = HashMap::new();
                for r in 0..n {
                    let key = key_of(data, &def.columns, r);
                    if !key.iter().any(Datum::is_null) {
                        map.entry(key).or_default().push(r);
                    }
                }
                IndexState::Hash(map)
            }
        };
        Ok(IndexData { def, state })
    }

    /// Incrementally indexes the row at position `pos` (already present in
    /// `data`). Positions need not arrive in order: both shapes insert at
    /// the sorted point, so ordered permutations keep their (key, position)
    /// order and hash postings stay ascending.
    pub fn insert(&mut self, data: &dyn KeyAccess, pos: usize) {
        let key = key_of(data, &self.def.columns, pos);
        match &mut self.state {
            IndexState::Ordered(perm) => {
                let at = slot_of(perm, data, &self.def.columns, &key, pos);
                perm.insert(at, pos);
            }
            IndexState::Hash(map) => {
                if !key.iter().any(Datum::is_null) {
                    let postings = map.entry(key).or_default();
                    let at = postings.partition_point(|&p| p < pos);
                    postings.insert(at, pos);
                }
            }
        }
    }

    /// First half of following a table delta, run against the *pre-delta*
    /// data (every key still readable): drops the entries of deleted rows
    /// and of rewritten rows whose key columns changed, each found by
    /// binary search on its old key. Returns the pre-delta positions of
    /// those re-keyed rows for [`IndexData::relink`].
    ///
    /// An index none of whose key columns a rewrite touched is left
    /// alone entirely — not even un-shared from open snapshots.
    pub fn unlink(this: &mut Arc<IndexData>, old: &dyn KeyAccess, net: &NetDelta) -> Vec<usize> {
        let rekeyed: Vec<usize> = net
            .rewritten()
            .filter(|(pos, row)| {
                let mut cols = this.def.columns.iter();
                cols.any(|c| old.datum(*pos, *c) != row[*c])
            })
            .map(|(pos, _)| pos)
            .collect();
        let gone: Vec<usize> = rekeyed.iter().copied().chain(net.deleted()).collect();
        if gone.is_empty() {
            return rekeyed;
        }
        let idx = Arc::make_mut(this);
        let cols = &idx.def.columns;
        match &mut idx.state {
            IndexState::Ordered(perm) => {
                let mut slots: Vec<usize> = gone
                    .iter()
                    .map(|&pos| {
                        let slot = slot_of(perm, old, cols, &key_of(old, cols, pos), pos);
                        debug_assert_eq!(perm[slot], pos, "index out of step with its table");
                        slot
                    })
                    .collect();
                slots.sort_unstable();
                remove_sorted(perm, &slots);
            }
            IndexState::Hash(map) => {
                for &pos in &gone {
                    let key = key_of(old, cols, pos);
                    let Some(postings) = map.get_mut(&key) else {
                        continue; // NULL-bearing keys are not stored
                    };
                    if let Ok(at) = postings.binary_search(&pos) {
                        postings.remove(at);
                    }
                    if postings.is_empty() {
                        map.remove(&key);
                    }
                }
            }
        }
        rekeyed
    }

    /// Second half, run against the *post-delta* data: moves surviving
    /// entries to their new positions — a pass over the index only when
    /// [`DeltaOutcome::shifts`], i.e. after a DELETE or an out-of-order
    /// insert; the shift is monotonic, so (key, position) order and
    /// ascending postings are preserved — then links the re-keyed and
    /// inserted rows by binary search on their new keys. Because the index
    /// is copy-on-write-snapshotted with its table, open probe snapshots
    /// keep serving the pre-delta state.
    pub fn relink(
        this: &mut Arc<IndexData>,
        new: &dyn KeyAccess,
        outcome: &DeltaOutcome,
        rekeyed: &[usize],
    ) {
        let shifts = outcome.shifts();
        if !shifts && rekeyed.is_empty() && outcome.inserted.is_empty() {
            return;
        }
        let mut incoming: Vec<usize> = rekeyed.iter().map(|p| outcome.final_pos(*p)).collect();
        incoming.extend(&outcome.inserted);
        let idx = Arc::make_mut(this);
        if shifts {
            let moved = |p: &mut usize| *p = outcome.final_pos(*p);
            match &mut idx.state {
                IndexState::Ordered(perm) => perm.iter_mut().for_each(moved),
                IndexState::Hash(map) => map.values_mut().flatten().for_each(moved),
            }
        }
        let IndexState::Ordered(perm) = &mut idx.state else {
            return incoming.into_iter().for_each(|pos| idx.insert(new, pos));
        };
        // One batch for the ordered permutation: slots by binary search,
        // then a single back-to-front shift of the suffix above the
        // lowest — not one memmove per entry.
        let cols = &idx.def.columns;
        let mut incoming: Vec<(Vec<Datum>, usize)> = incoming
            .into_iter()
            .map(|pos| (key_of(new, cols, pos), pos))
            .collect();
        incoming.sort();
        // Entry k lands k slots above its slot among the current entries.
        let slots = incoming
            .iter()
            .map(|(key, pos)| slot_of(perm, new, cols, key, *pos));
        let at: Vec<usize> = slots.enumerate().map(|(k, slot)| slot + k).collect();
        insert_sorted(
            perm,
            &at,
            incoming.into_iter().map(|(_, pos)| pos).collect(),
        );
    }

    /// Row positions matching `probe`, ascending. Shapes the physical
    /// index cannot serve (a range probe against a hash index, a probe
    /// past the key arity) fall back to a full position scan so the
    /// answer is always exact.
    pub fn probe(&self, data: &dyn KeyAccess, probe: &BoundProbe) -> Vec<usize> {
        if !probe.satisfiable() || probe.eq.len() > self.def.columns.len() {
            return vec![];
        }
        let ranged = probe.lower.is_some() || probe.upper.is_some();
        if ranged && probe.eq.len() >= self.def.columns.len() {
            return vec![]; // range column beyond the key: unsatisfiable shape
        }
        match &self.state {
            IndexState::Hash(map) => {
                if ranged || probe.eq.len() != self.def.columns.len() {
                    return self.scan_fallback(data, probe);
                }
                map.get(&probe.eq).cloned().unwrap_or_default()
            }
            IndexState::Ordered(perm) => {
                let cols = &self.def.columns;
                // Narrow to the run of keys whose prefix equals `eq`.
                let prefix_cmp = |p: usize| -> std::cmp::Ordering {
                    for (i, want) in probe.eq.iter().enumerate() {
                        let ord = data.datum(p, cols[i]).cmp(want);
                        if ord != std::cmp::Ordering::Equal {
                            return ord;
                        }
                    }
                    std::cmp::Ordering::Equal
                };
                let lo = perm.partition_point(|&p| prefix_cmp(p) == std::cmp::Ordering::Less);
                let hi = lo
                    + perm[lo..].partition_point(|&p| prefix_cmp(p) != std::cmp::Ordering::Greater);
                let (mut lo, mut hi) = (lo, hi);
                if ranged {
                    let rcol = cols[probe.eq.len()];
                    // NULLs sort first under the Datum total order and no
                    // comparison matches them: skip them at the front.
                    lo += perm[lo..hi].partition_point(|&p| data.datum(p, rcol).is_null());
                    if let Some((b, inclusive)) = &probe.lower {
                        lo += perm[lo..hi].partition_point(|&p| {
                            let v = data.datum(p, rcol);
                            if *inclusive {
                                v < *b
                            } else {
                                v <= *b
                            }
                        });
                    }
                    if let Some((b, inclusive)) = &probe.upper {
                        hi = lo
                            + perm[lo..hi].partition_point(|&p| {
                                let v = data.datum(p, rcol);
                                if *inclusive {
                                    v <= *b
                                } else {
                                    v < *b
                                }
                            });
                    }
                }
                let mut out = perm[lo..hi].to_vec();
                // Results must stream in table order so an index plan is
                // byte-identical to the filter-over-scan it replaces.
                out.sort_unstable();
                out
            }
        }
    }

    fn scan_fallback(&self, data: &dyn KeyAccess, probe: &BoundProbe) -> Vec<usize> {
        (0..data.len())
            .filter(|r| probe.matches(data, *r, &self.def))
            .collect()
    }
}

fn key_of(data: &dyn KeyAccess, columns: &[usize], row: usize) -> Vec<Datum> {
    columns.iter().map(|c| data.datum(row, *c)).collect()
}

/// Where the entry `(key, pos)` sits — or belongs — in an ordered
/// permutation over `data`: the first slot not ordered before it.
fn slot_of(
    perm: &[usize],
    data: &dyn KeyAccess,
    cols: &[usize],
    key: &[Datum],
    pos: usize,
) -> usize {
    perm.partition_point(|&p| {
        let keys = cols.iter().zip(key);
        let by_key = keys
            .map(|(c, want)| data.datum(p, *c).cmp(want))
            .find(|ord| ord.is_ne());
        by_key.unwrap_or_else(|| p.cmp(&pos)).is_lt()
    })
}

/// A consistent snapshot a table hands out for index probes: positions,
/// rows and the index all refer to the same point-in-time data, so an
/// in-flight index-nested-loop join is undisturbed by concurrent INSERTs
/// (same contract as [`crate::catalog::RangeScan`]).
pub trait IndexProbe: Send + Sync {
    fn row_count(&self) -> usize;

    /// Matching row positions, ascending.
    fn positions(&self, probe: &BoundProbe) -> Vec<usize>;

    /// The full row at `pos`.
    fn row(&self, pos: usize) -> Row;
}

/// The one [`IndexProbe`] implementation backends need: a point-in-time
/// [`KeyAccess`] plus the matching index snapshot.
pub struct SnapshotProbe<A: KeyAccess + Send + Sync> {
    pub data: A,
    pub index: Arc<IndexData>,
}

impl<A: KeyAccess + Send + Sync> IndexProbe for SnapshotProbe<A> {
    fn row_count(&self) -> usize {
        self.data.len()
    }

    fn positions(&self, probe: &BoundProbe) -> Vec<usize> {
        self.index.probe(&self.data, probe)
    }

    fn row(&self, pos: usize) -> Row {
        self.data.row(pos)
    }
}

/// Positions matching any of `probes`, merged into ascending table order
/// and deduped (overlapping IN-list probes must not duplicate rows).
pub fn seek_positions(snap: &dyn IndexProbe, probes: &[BoundProbe]) -> Vec<usize> {
    let mut all: Vec<usize> = vec![];
    for p in probes {
        all.extend(snap.positions(p));
    }
    all.sort_unstable();
    all.dedup();
    all
}

/// Full rows for [`seek_positions`], in table order.
pub fn seek_rows(snap: &dyn IndexProbe, probes: &[BoundProbe]) -> Vec<Row> {
    seek_positions(snap, probes)
        .into_iter()
        .map(|p| snap.row(p))
        .collect()
}

// ---------------------------------------------------------------------
// Planner-side seek description
// ---------------------------------------------------------------------

/// One unbound probe: constant row expressions (literals or dynamic
/// parameters) for the leading key columns, plus optional bounds on the
/// next key column. Bound against the execution context into a
/// [`BoundProbe`].
#[derive(Debug, Clone)]
pub struct SeekProbe {
    pub eq: Vec<RexNode>,
    pub lower: Option<(RexNode, bool)>,
    pub upper: Option<(RexNode, bool)>,
}

impl SeekProbe {
    pub fn point(eq: Vec<RexNode>) -> SeekProbe {
        SeekProbe {
            eq,
            lower: None,
            upper: None,
        }
    }

    fn digest(&self) -> String {
        let mut parts: Vec<String> = self.eq.iter().map(|e| format!("={}", e.digest())).collect();
        if let Some((b, inclusive)) = &self.lower {
            parts.push(format!(
                "{}{}",
                if *inclusive { ">=" } else { ">" },
                b.digest()
            ));
        }
        if let Some((b, inclusive)) = &self.upper {
            parts.push(format!(
                "{}{}",
                if *inclusive { "<=" } else { "<" },
                b.digest()
            ));
        }
        parts.join(" ")
    }
}

/// The access-path payload of an `IndexSeek` plan node: one probe for a
/// point/range seek, several for an IN-list multi-probe.
#[derive(Debug, Clone)]
pub struct SeekSpec {
    pub probes: Vec<SeekProbe>,
}

impl SeekSpec {
    pub fn digest(&self) -> String {
        let parts: Vec<String> = self.probes.iter().map(|p| p.digest()).collect();
        format!("[{}]", parts.join("; "))
    }

    /// Binds every probe's constant expressions through `value` (which
    /// resolves literals and parameters), failing on the first that does
    /// not evaluate.
    pub fn bind(&self, value: impl Fn(&RexNode) -> Result<Datum>) -> Result<Vec<BoundProbe>> {
        let bound = |b: &Option<(RexNode, bool)>| -> Result<Option<(Datum, bool)>> {
            b.as_ref().map(|(e, inc)| Ok((value(e)?, *inc))).transpose()
        };
        self.probes
            .iter()
            .map(|p| {
                Ok(BoundProbe {
                    eq: p.eq.iter().map(&value).collect::<Result<_>>()?,
                    lower: bound(&p.lower)?,
                    upper: bound(&p.upper)?,
                })
            })
            .collect()
    }

    /// Every constant expression carried by the seek (for parameter
    /// discovery and binding).
    pub fn exprs(&self) -> Vec<&RexNode> {
        let mut out = vec![];
        for p in &self.probes {
            out.extend(p.eq.iter());
            if let Some((b, _)) = &p.lower {
                out.push(b);
            }
            if let Some((b, _)) = &p.upper {
                out.push(b);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Version;

    /// A two-rows-per-chunk version of `vals`, so every multi-row case
    /// below crosses chunk boundaries.
    fn data(vals: Vec<Vec<Option<i64>>>) -> Arc<Version> {
        let arity = vals.first().map_or(0, Vec::len);
        let rows = vals
            .into_iter()
            .map(|r| {
                r.into_iter()
                    .map(|v| v.map_or(Datum::Null, Datum::Int))
                    .collect()
            })
            .collect();
        let kinds = vec![crate::types::TypeKind::Integer; arity];
        Arc::new(Version::with_capacity(kinds.into(), 2, 0, rows))
    }

    /// Every probe shape the differential tests compare on: points over
    /// the key domain (and NULL), plus ranges on the leading column.
    fn probes() -> Vec<BoundProbe> {
        let mut out: Vec<BoundProbe> = (-1..12)
            .map(|k| BoundProbe::point(vec![Datum::Int(k)]))
            .collect();
        out.push(BoundProbe::point(vec![Datum::Null]));
        for (lo, hi) in [(0, 3), (2, 9), (5, 5)] {
            out.push(BoundProbe {
                eq: vec![],
                lower: Some((Datum::Int(lo), true)),
                upper: Some((Datum::Int(hi), false)),
            });
        }
        out
    }

    /// Applies `ops` through [`Version::apply_delta`] (unlink → apply →
    /// relink) and checks every maintained index against a fresh build
    /// over the resulting rows.
    fn follow(store: &mut Arc<Version>, ops: &[crate::txn::DeltaOp]) {
        Version::apply_delta(store, ops).unwrap();
        for def in store.index_defs() {
            let live = store.index_probe(&def.name).unwrap();
            let fresh = IndexData::build(def.clone(), store).unwrap();
            for probe in probes() {
                assert_eq!(
                    live.positions(&probe),
                    fresh.probe(store, &probe),
                    "index {} disagrees with a rebuild on {probe:?} after {ops:?}",
                    def.name
                );
            }
        }
    }

    #[test]
    fn maintained_index_matches_fresh_build() {
        use crate::txn::DeltaOp;
        // Keyed by column 0 with duplicates and a NULL.
        let mut store = data(vec![
            vec![Some(3), Some(0)],
            vec![Some(1), Some(1)],
            vec![Some(3), Some(2)],
            vec![None, Some(3)],
            vec![Some(2), Some(4)],
            vec![Some(1), Some(5)],
        ]);
        for def in [
            IndexDef::ordered("o", vec![0]),
            IndexDef::hash("h", vec![0]),
            IndexDef::ordered("o2", vec![1, 0]),
        ] {
            Version::create_index(&mut store, &def).unwrap();
        }
        let row = |k: Option<i64>, v: i64| vec![k.map_or(Datum::Null, Datum::Int), Datum::Int(v)];
        let streams = [
            // Delete, re-key an update, insert at the tail.
            vec![
                DeltaOp::Delete { row_id: 1 },
                DeltaOp::Update {
                    row_id: 4,
                    row: row(Some(9), 4),
                },
                DeltaOp::Insert {
                    row_id: 6,
                    row: row(Some(3), 6),
                },
            ],
            // Key untouched (only column 1 changes), key to and from NULL.
            vec![
                DeltaOp::Update {
                    row_id: 0,
                    row: row(Some(3), 7),
                },
                DeltaOp::Update {
                    row_id: 3,
                    row: row(Some(2), 3),
                },
                DeltaOp::Update {
                    row_id: 5,
                    row: row(None, 5),
                },
            ],
            // Out-of-order reservation: id 8 commits before id 7.
            vec![DeltaOp::Insert {
                row_id: 8,
                row: row(Some(0), 8),
            }],
            vec![
                DeltaOp::Insert {
                    row_id: 7,
                    row: row(Some(11), 7),
                },
                DeltaOp::Delete { row_id: 0 },
                DeltaOp::Delete { row_id: 8 },
            ],
        ];
        for ops in &streams {
            follow(&mut store, ops);
        }
        let ids: Vec<u64> = store.row_ids().collect();
        assert_eq!(ids, vec![2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn ordered_point_and_range_probe() {
        let d = data(vec![
            vec![Some(3), Some(30)],
            vec![Some(1), Some(10)],
            vec![Some(3), Some(31)],
            vec![None, Some(99)],
            vec![Some(2), Some(20)],
        ]);
        let idx = IndexData::build(IndexDef::ordered("i", vec![0]), &d).unwrap();
        assert_eq!(
            idx.probe(&d, &BoundProbe::point(vec![Datum::Int(3)])),
            vec![0, 2]
        );
        assert_eq!(
            idx.probe(&d, &BoundProbe::point(vec![Datum::Int(7)])),
            Vec::<usize>::new()
        );
        // NULL keys never match a probe, equality or range.
        assert_eq!(
            idx.probe(&d, &BoundProbe::point(vec![Datum::Null])),
            Vec::<usize>::new()
        );
        let range = BoundProbe {
            eq: vec![],
            lower: Some((Datum::Int(2), true)),
            upper: Some((Datum::Int(3), false)),
        };
        assert_eq!(idx.probe(&d, &range), vec![4]);
        let open_below = BoundProbe {
            eq: vec![],
            lower: None,
            upper: Some((Datum::Int(3), true)),
        };
        // Lower-unbounded ranges must skip the NULL run at the front.
        assert_eq!(idx.probe(&d, &open_below), vec![0, 1, 2, 4]);
    }

    #[test]
    fn ordered_prefix_probe_with_range() {
        let d = data(vec![
            vec![Some(1), Some(10)],
            vec![Some(1), Some(20)],
            vec![Some(2), Some(10)],
            vec![Some(1), None],
        ]);
        let idx = IndexData::build(IndexDef::ordered("i", vec![0, 1]), &d).unwrap();
        let p = BoundProbe {
            eq: vec![Datum::Int(1)],
            lower: Some((Datum::Int(10), false)),
            upper: None,
        };
        // Unbounded-above within the prefix: the NULL second key (row 3)
        // must not leak in.
        assert_eq!(idx.probe(&d, &p), vec![1]);
        assert_eq!(
            idx.probe(&d, &BoundProbe::point(vec![Datum::Int(1), Datum::Int(10)])),
            vec![0]
        );
    }

    #[test]
    fn hash_probe_and_shape_fallback() {
        let d = data(vec![
            vec![Some(1), Some(10)],
            vec![Some(2), Some(20)],
            vec![Some(1), Some(30)],
            vec![None, Some(40)],
        ]);
        let idx = IndexData::build(IndexDef::hash("h", vec![0]), &d).unwrap();
        assert_eq!(
            idx.probe(&d, &BoundProbe::point(vec![Datum::Int(1)])),
            vec![0, 2]
        );
        assert_eq!(
            idx.probe(&d, &BoundProbe::point(vec![Datum::Null])),
            Vec::<usize>::new()
        );
        // A range probe against a hash index still answers (full scan).
        let range = BoundProbe {
            eq: vec![],
            lower: Some((Datum::Int(2), true)),
            upper: None,
        };
        assert_eq!(idx.probe(&d, &range), vec![1]);
    }

    #[test]
    fn incremental_insert_matches_rebuild() {
        let mut rows = vec![vec![Some(5)], vec![Some(1)], vec![Some(5)], vec![None]];
        let d0 = data(rows.clone());
        let mut ordered = IndexData::build(IndexDef::ordered("o", vec![0]), &d0).unwrap();
        let mut hash = IndexData::build(IndexDef::hash("h", vec![0]), &d0).unwrap();
        for v in [Some(5), Some(0), None, Some(9)] {
            rows.push(vec![v]);
            let d = data(rows.clone());
            ordered.insert(&d, rows.len() - 1);
            hash.insert(&d, rows.len() - 1);
        }
        let d = data(rows.clone());
        let rebuilt_o = IndexData::build(IndexDef::ordered("o", vec![0]), &d).unwrap();
        let rebuilt_h = IndexData::build(IndexDef::hash("h", vec![0]), &d).unwrap();
        for v in [0i64, 1, 5, 9, 42] {
            let p = BoundProbe::point(vec![Datum::Int(v)]);
            assert_eq!(ordered.probe(&d, &p), rebuilt_o.probe(&d, &p), "v={v}");
            assert_eq!(hash.probe(&d, &p), rebuilt_h.probe(&d, &p), "v={v}");
        }
        let range = BoundProbe {
            eq: vec![],
            lower: Some((Datum::Int(1), true)),
            upper: Some((Datum::Int(5), true)),
        };
        assert_eq!(ordered.probe(&d, &range), rebuilt_o.probe(&d, &range));
    }

    #[test]
    fn seek_merges_and_dedups_probes() {
        let mut d = data(vec![vec![Some(1)], vec![Some(2)], vec![Some(1)]]);
        Version::create_index(&mut d, &IndexDef::ordered("i", vec![0])).unwrap();
        let snap = d.index_probe("i").unwrap();
        let probes = vec![
            BoundProbe::point(vec![Datum::Int(1)]),
            BoundProbe::point(vec![Datum::Int(2)]),
            BoundProbe::point(vec![Datum::Int(1)]), // duplicate IN value
        ];
        assert_eq!(seek_positions(snap.as_ref(), &probes), vec![0, 1, 2]);
        assert_eq!(
            seek_rows(snap.as_ref(), &probes),
            vec![
                vec![Datum::Int(1)],
                vec![Datum::Int(2)],
                vec![Datum::Int(1)]
            ]
        );
    }

    #[test]
    fn build_validates_columns() {
        let d = data(vec![vec![Some(1)]]);
        assert!(IndexData::build(IndexDef::ordered("i", vec![]), &d).is_err());
        assert!(IndexData::build(IndexDef::ordered("i", vec![5]), &d).is_err());
    }
}
