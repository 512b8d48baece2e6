//! The key kernel: everything in the batch engine that is keyed — hash
//! join build and probe, grace-join partition routing, grouping,
//! DISTINCT aggregates and the set operations — hashes and compares
//! keys through this module, column-wise, without materializing a
//! `Vec<Datum>` per row.
//!
//! Three pieces:
//!
//! - [`hash_keys`]: one hash vector for a batch and a list of key
//!   columns, computed in one typed pass per column.
//! - [`RowEq`]: row-vs-row equality between two column lists, resolved
//!   once per column pair into a typed lane.
//! - [`KeyTable`]: a flat open-addressing table of `u32` entries
//!   (build-row positions or key ids) that stores no keys itself — the
//!   caller supplies the entries' hashes and the equality. [`KeySet`]
//!   puts the three together for the interning users (grouping,
//!   DISTINCT, set operations).
//!
//! **Equality contract.** Two key values are equal exactly when
//! `Datum::cmp` says `Equal`: `1 = 1.0`, `-0.0 ≠ 0.0`, `NaN = NaN`, and
//! `NULL = NULL` (joins, where NULL never matches, exclude NULL rows
//! through [`null_rows`] before touching the table). The hash is a
//! function of the *value*, not of the column representation: an `Int`
//! vector, a `Double` vector and a `Generic` vector holding the same
//! values produce the same hash vector, so a build side hashed as one
//! representation can be probed with another, and the per-pair lane
//! only decides how equality is evaluated.

use rcalcite_core::buffer::column_bytes;
use rcalcite_core::datum::{Column, Datum};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Marks a vacant [`KeyTable`] slot and the end of a chain.
pub(crate) const EMPTY: u32 = u32::MAX;

const NULL_HASH: u64 = 0x6E75_6C6C_6B65_7973;
const NUM_SEED: u64 = 0x243F_6A88_85A3_08D3;
const STR_SEED: u64 = 0x1319_8A2E_0370_7344;
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Folded 64×64→128 multiply: every input bit reaches every output bit.
#[inline]
fn mum(a: u64, b: u64) -> u64 {
    let m = u128::from(a) * u128::from(b);
    (m as u64) ^ ((m >> 64) as u64)
}

/// Numerics hash through the `f64` bit pattern of their value, so an
/// `Int` and the `Double` it compares equal to hash alike.
#[inline]
fn hash_f64(x: f64) -> u64 {
    mum(x.to_bits() ^ NUM_SEED, K)
}

#[inline]
fn hash_str(s: &str) -> u64 {
    let bytes = s.as_bytes();
    let mut h = STR_SEED ^ bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h = mum(
            h ^ u64::from_le_bytes(c.try_into().expect("8-byte chunk")),
            K,
        );
    }
    let mut tail = [0u8; 8];
    let rest = chunks.remainder();
    tail[..rest.len()].copy_from_slice(rest);
    mum(h ^ u64::from_le_bytes(tail), K)
}

/// The value hash every lane agrees on.
fn hash_datum(d: &Datum) -> u64 {
    match d {
        Datum::Null => NULL_HASH,
        Datum::Int(i) => hash_f64(*i as f64),
        Datum::Double(x) => hash_f64(*x),
        Datum::Str(s) => hash_str(s),
        // Kinds without a typed vector: `Datum`'s own `Hash`, which is
        // consistent with `Datum::cmp` by construction.
        other => {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            other.hash(&mut h);
            h.finish()
        }
    }
}

/// Folds one column's value hash into a row's running key hash.
#[inline]
fn combine(acc: u64, h: u64) -> u64 {
    (acc.rotate_left(23) ^ h).wrapping_mul(K)
}

/// The key hash of every row of a batch: one typed pass per key column.
/// Zero key columns hash every row alike (one global group).
pub(crate) fn hash_keys(cols: &[&Column], n: usize) -> Vec<u64> {
    let mut out = vec![0u64; n];
    for col in cols {
        match col {
            Column::Int { values, valid } => {
                for ((h, v), ok) in out.iter_mut().zip(values).zip(valid) {
                    *h = combine(*h, if *ok { hash_f64(*v as f64) } else { NULL_HASH });
                }
            }
            Column::Double { values, valid } => {
                for ((h, v), ok) in out.iter_mut().zip(values).zip(valid) {
                    *h = combine(*h, if *ok { hash_f64(*v) } else { NULL_HASH });
                }
            }
            Column::Str { values, valid } => {
                for ((h, v), ok) in out.iter_mut().zip(values).zip(valid) {
                    *h = combine(*h, if *ok { hash_str(v) } else { NULL_HASH });
                }
            }
            Column::Bool { .. } => {
                for (i, h) in out.iter_mut().enumerate() {
                    *h = combine(*h, hash_datum(&col.get(i)));
                }
            }
            Column::Generic(v) => {
                for (h, d) in out.iter_mut().zip(v) {
                    *h = combine(*h, hash_datum(d));
                }
            }
        }
    }
    out
}

/// [`hash_keys`] for one materialized row (the grace join re-splits
/// spilled rows, which arrive as datums): the same hash the column pass
/// gives that row.
pub(crate) fn hash_row_keys<'a>(key: impl Iterator<Item = &'a Datum>) -> u64 {
    key.fold(0, |acc, d| combine(acc, hash_datum(d)))
}

/// Which of `n` partitions a key hash routes to. `salt` varies per
/// recursion level of the grace join, so a skewed partition re-splits on
/// fresh bits.
pub(crate) fn partition_of(hash: u64, salt: u32, n: usize) -> usize {
    (mum(hash ^ u64::from(salt).wrapping_mul(K), NUM_SEED) >> 32) as usize % n
}

/// Per row: is any key column NULL? (Join keys — NULL never joins.)
pub(crate) fn null_rows(cols: &[&Column], n: usize) -> Vec<bool> {
    let mut out = vec![false; n];
    for col in cols {
        match col {
            Column::Int { valid, .. }
            | Column::Double { valid, .. }
            | Column::Bool { valid, .. }
            | Column::Str { valid, .. } => {
                for (o, ok) in out.iter_mut().zip(valid) {
                    *o |= !*ok;
                }
            }
            Column::Generic(v) => {
                for (o, d) in out.iter_mut().zip(v) {
                    *o |= d.is_null();
                }
            }
        }
    }
    out
}

/// How one key-column pair compares, decided once per batch.
enum Lane<'a> {
    Int {
        a: &'a [i64],
        a_valid: &'a [bool],
        b: &'a [i64],
        b_valid: &'a [bool],
    },
    Str {
        a: &'a [Arc<str>],
        a_valid: &'a [bool],
        b: &'a [Arc<str>],
        b_valid: &'a [bool],
    },
    /// Representations differ (Int vs Double, anything vs `Generic`) or
    /// have no typed lane: compare as datums, which *is* the contract.
    Datum { a: &'a Column, b: &'a Column },
}

/// Typed row-vs-row equality between two equally long column lists:
/// `eq(i, j)` compares row `i` of the first list with row `j` of the
/// second under the module's equality contract.
pub(crate) struct RowEq<'a> {
    lanes: Vec<Lane<'a>>,
}

impl<'a> RowEq<'a> {
    pub(crate) fn new(a: &[&'a Column], b: &[&'a Column]) -> RowEq<'a> {
        debug_assert_eq!(a.len(), b.len());
        let lanes = a
            .iter()
            .zip(b)
            .map(|(a, b)| match (a, b) {
                (
                    Column::Int { values, valid },
                    Column::Int {
                        values: v2,
                        valid: n2,
                    },
                ) => Lane::Int {
                    a: values,
                    a_valid: valid,
                    b: v2,
                    b_valid: n2,
                },
                (
                    Column::Str { values, valid },
                    Column::Str {
                        values: v2,
                        valid: n2,
                    },
                ) => Lane::Str {
                    a: values,
                    a_valid: valid,
                    b: v2,
                    b_valid: n2,
                },
                _ => Lane::Datum { a, b },
            })
            .collect();
        RowEq { lanes }
    }

    #[inline]
    pub(crate) fn eq(&self, i: usize, j: usize) -> bool {
        self.lanes.iter().all(|lane| match lane {
            Lane::Int {
                a,
                a_valid,
                b,
                b_valid,
            } => a_valid[i] == b_valid[j] && (!a_valid[i] || a[i] == b[j]),
            Lane::Str {
                a,
                a_valid,
                b,
                b_valid,
            } => a_valid[i] == b_valid[j] && (!a_valid[i] || a[i] == b[j]),
            Lane::Datum { a, b } => match (a, b) {
                (Column::Generic(x), Column::Generic(y)) => x[i] == y[j],
                _ => a.get(i) == b.get(j),
            },
        })
    }
}

/// A flat open-addressing table of `u32` entries, linear probing, load
/// factor ≤ ½. A slot packs the entry with the upper half of its key
/// hash, so a probe rejects other keys without leaving the slot array;
/// the table stores no keys — equality is the caller's closure — so one
/// table serves build-row positions (hash join) and key ids ([`KeySet`])
/// alike. An unused table owns no memory.
#[derive(Default)]
pub(crate) struct KeyTable {
    slots: Vec<u64>,
    len: usize,
}

const VACANT: u64 = u64::MAX;

#[inline]
fn pack(hash: u64, entry: u32) -> u64 {
    (hash & !u64::from(EMPTY)) | u64::from(entry)
}

impl KeyTable {
    /// A table sized once for up to `n` entries.
    pub(crate) fn for_entries(n: usize) -> KeyTable {
        let mut t = KeyTable::default();
        if n > 0 {
            t.slots = vec![VACANT; (n * 2).next_power_of_two().max(16)];
        }
        t
    }

    /// Makes room for one more entry, doubling (from empty) when the
    /// load factor would pass ½; entries re-seat by `hashes[entry]`.
    #[inline]
    pub(crate) fn reserve_one(&mut self, hashes: &[u64]) {
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow(hashes);
        }
    }

    #[cold]
    fn grow(&mut self, hashes: &[u64]) {
        let cap = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![VACANT; cap]);
        let mask = cap - 1;
        for packed in old.into_iter().filter(|&p| p != VACANT) {
            let mut s = hashes[(packed as u32) as usize] as usize & mask;
            while self.slots[s] != VACANT {
                s = (s + 1) & mask;
            }
            self.slots[s] = packed;
        }
    }

    /// Probes for `hash`: the slot holding the entry with that hash for
    /// which `same(entry)` holds, else the vacant slot where it would go
    /// — `(slot, entry)` with `entry == EMPTY` for a miss. On a table
    /// without capacity every probe misses (and the slot is unusable).
    #[inline]
    pub(crate) fn find(&self, hash: u64, mut same: impl FnMut(u32) -> bool) -> (usize, u32) {
        if self.slots.is_empty() {
            return (0, EMPTY);
        }
        let mask = self.slots.len() - 1;
        let mut s = hash as usize & mask;
        loop {
            let packed = self.slots[s];
            let e = packed as u32;
            if packed == VACANT || (packed == pack(hash, e) && same(e)) {
                return (s, e);
            }
            s = (s + 1) & mask;
        }
    }

    /// Seats `entry` (whose key hashes to `hash`) in `slot`: a vacant
    /// slot from [`KeyTable::find`] after [`KeyTable::reserve_one`], or
    /// an occupied one to replace its entry with another of the same key.
    #[inline]
    pub(crate) fn set(&mut self, slot: usize, hash: u64, entry: u32) {
        debug_assert_ne!(entry, EMPTY);
        if self.slots[slot] == VACANT {
            self.len += 1;
        }
        self.slots[slot] = pack(hash, entry);
    }
}

/// A set of distinct keys with dense ids in first-seen order: the key
/// table plus the typed key *columns*, appended on first sight. Grouping
/// keeps its accumulators beside it indexed by id; DISTINCT and the set
/// operations use it as is.
#[derive(Default)]
pub(crate) struct KeySet {
    table: KeyTable,
    hashes: Vec<u64>,
    /// One column per key field, one row per key. Empty until the first
    /// batch shows the representations.
    cols: Vec<Column>,
    /// Running heap footprint (see [`KeySet::bytes`]).
    bytes: usize,
}

/// Per-key overhead beside the key columns: the stored hash and two
/// table slots (load factor ≤ ½).
const KEY_OVERHEAD: usize = 8 + 2 * 8;

impl KeySet {
    pub(crate) fn len(&self) -> usize {
        self.hashes.len()
    }

    pub(crate) fn columns(&self) -> &[Column] {
        &self.cols
    }

    pub(crate) fn into_columns(self) -> Vec<Column> {
        self.cols
    }

    /// Heap footprint of the keys held, maintained incrementally: exact
    /// (by `column_bytes`' accounting) for the key columns, plus the
    /// per-key table overhead.
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }

    /// What [`KeySet::bytes`] must equal, recomputed from scratch.
    #[cfg(test)]
    pub(crate) fn recount_bytes(&self) -> usize {
        self.len() * KEY_OVERHEAD + self.cols.iter().map(column_bytes).sum::<usize>()
    }

    /// Maps each of the `n` rows of `cols` to the id of its key,
    /// assigning the next ids — in row order — to keys not seen before.
    /// Returns the ids and, ascending, the rows that created a key.
    pub(crate) fn intern(&mut self, cols: &[&Column], n: usize) -> (Vec<u32>, Vec<usize>) {
        if self.cols.len() != cols.len() {
            debug_assert!(self.hashes.is_empty());
            self.cols = cols.iter().map(|c| c.slice(0, 0)).collect();
        }
        assert!(self.len() + n < EMPTY as usize, "key ids are u32");
        let base = self.len() as u32;
        // The key columns of `fresh` rows are appended after the loop,
        // so a later row of the same batch compares against the batch
        // itself.
        let mut fresh: Vec<usize> = vec![];
        let mut ids = Vec::with_capacity(n);
        {
            let stored: Vec<&Column> = self.cols.iter().collect();
            let vs_stored = RowEq::new(cols, &stored);
            let vs_batch = RowEq::new(cols, cols);
            for (i, h) in hash_keys(cols, n).into_iter().enumerate() {
                self.table.reserve_one(&self.hashes);
                let (slot, e) = self.table.find(h, |e| {
                    if e < base {
                        vs_stored.eq(i, e as usize)
                    } else {
                        vs_batch.eq(i, fresh[(e - base) as usize])
                    }
                });
                if e != EMPTY {
                    ids.push(e);
                    continue;
                }
                let id = base + fresh.len() as u32;
                self.table.set(slot, h, id);
                self.hashes.push(h);
                fresh.push(i);
                ids.push(id);
            }
        }
        if !fresh.is_empty() {
            self.bytes += fresh.len() * KEY_OVERHEAD;
            for (dst, src) in self.cols.iter_mut().zip(cols) {
                let add = src.gather(&fresh);
                if std::mem::discriminant(dst) == std::mem::discriminant(&add) {
                    self.bytes += column_bytes(&add);
                    dst.append(&add);
                } else {
                    // A representation mismatch demotes the stored column
                    // to `Generic`, whose cells are accounted differently.
                    self.bytes -= column_bytes(dst);
                    dst.append(&add);
                    self.bytes += column_bytes(dst);
                }
            }
        }
        (ids, fresh)
    }

    /// The id of each row's key, [`EMPTY`] for keys not in the set.
    pub(crate) fn lookup(&self, cols: &[&Column], n: usize) -> Vec<u32> {
        if self.hashes.is_empty() {
            return vec![EMPTY; n];
        }
        let stored: Vec<&Column> = self.cols.iter().collect();
        let eq = RowEq::new(cols, &stored);
        hash_keys(cols, n)
            .into_iter()
            .enumerate()
            .map(|(i, h)| self.table.find(h, |e| eq.eq(i, e as usize)).1)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rcalcite_core::types::TypeKind;
    use std::collections::HashMap;

    /// Key values from a domain small enough to collide: numerics that
    /// meet across Int/Double (1 = 1.0, 0 vs ±0.0, NaN), strings, NULL
    /// and an untyped kind.
    fn key_datum() -> impl Strategy<Value = Datum> {
        prop_oneof![
            (-3i64..4).prop_map(Datum::Int),
            (-3i64..4).prop_map(|i| Datum::Double(i as f64)),
            Just(Datum::Double(-0.0)),
            Just(Datum::Double(0.5)),
            Just(Datum::Double(f64::NAN)),
            Just(Datum::Int(i64::MAX)),
            (0i64..4).prop_map(|i| Datum::str(format!("key-number-{i}"))),
            Just(Datum::str("")),
            Just(Datum::Null),
            (0i32..3).prop_map(Datum::Date),
            any::<bool>().prop_map(Datum::Bool),
        ]
    }

    /// Every representation `Column` can give these datums: the typed
    /// vector when they fit one, and always `Generic`.
    fn representations(datums: &[Datum]) -> Vec<Column> {
        let mut out = vec![Column::Generic(datums.to_vec())];
        for kind in [
            TypeKind::Integer,
            TypeKind::Double,
            TypeKind::Varchar,
            TypeKind::Boolean,
        ] {
            let col = Column::from_datums(&kind, datums.iter().cloned());
            if !matches!(col, Column::Generic(_)) {
                out.push(col);
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn equal_values_hash_equal_across_lanes(a in key_datum(), b in key_datum()) {
            // The row form and every column form agree on one value…
            for d in [&a, &b] {
                let h = hash_row_keys([d].into_iter());
                for col in representations(std::slice::from_ref(d)) {
                    prop_assert_eq!(hash_keys(&[&col], 1)[0], h);
                }
            }
            // …and values that compare equal hash equal, whatever their
            // lane (Int 1 vs Double 1.0).
            if a == b {
                prop_assert_eq!(
                    hash_row_keys([&a].into_iter()),
                    hash_row_keys([&b].into_iter())
                );
            }
        }

        #[test]
        fn row_eq_is_datum_equality_on_every_lane_pair(
            xs in proptest::collection::vec(key_datum(), 1..12),
            ys in proptest::collection::vec(key_datum(), 1..12),
            ints in proptest::collection::vec((-2i64..3).prop_map(Datum::Int), 1..12),
        ) {
            for (a, b) in [(&xs, &ys), (&ints, &xs), (&xs, &ints), (&ints, &ints)] {
                for ca in representations(a) {
                    for cb in representations(b) {
                        let eq = RowEq::new(&[&ca], &[&cb]);
                        for (i, x) in a.iter().enumerate() {
                            for (j, y) in b.iter().enumerate() {
                                prop_assert_eq!(eq.eq(i, j), x == y);
                            }
                        }
                    }
                }
            }
        }

        #[test]
        fn interning_matches_a_datum_keyed_map(
            batches in proptest::collection::vec(
                proptest::collection::vec((key_datum(), 0i64..3), 0..40),
                1..5,
            ),
        ) {
            // Two-column keys (mixed column, Int column), batch by batch,
            // against first-seen ids from a `HashMap<Vec<Datum>, _>`.
            // Numerics are restricted to one lane per case so the
            // model's (non-transitive) cross-lane equality cannot pick a
            // different representative than the kernel.
            let mut model: HashMap<Vec<Datum>, u32> = HashMap::new();
            let mut set = KeySet::default();
            for rows in &batches {
                let rows: Vec<(Datum, i64)> = rows
                    .iter()
                    .map(|(d, k)| match d {
                        Datum::Double(x) if x.fract() == 0.0 => (Datum::Int(*x as i64), *k),
                        d => (d.clone(), *k),
                    })
                    .collect();
                let c0 = Column::Generic(rows.iter().map(|r| r.0.clone()).collect());
                let c1 = Column::from_datums(
                    &TypeKind::Integer,
                    rows.iter().map(|r| Datum::Int(r.1)),
                );
                let (ids, _) = set.intern(&[&c0, &c1], rows.len());
                for ((d, k), id) in rows.iter().zip(&ids) {
                    let next = model.len() as u32;
                    let want = *model.entry(vec![d.clone(), Datum::Int(*k)]).or_insert(next);
                    prop_assert_eq!(*id, want);
                }
                prop_assert_eq!(set.len(), model.len());
                prop_assert_eq!(set.lookup(&[&c0, &c1], rows.len()), ids);
                prop_assert_eq!(set.bytes(), set.recount_bytes());
            }
        }
    }

    #[test]
    fn table_grows_from_empty_and_keeps_every_key() {
        let mut set = KeySet::default();
        assert_eq!(set.bytes(), 0);
        let n = 5_000usize;
        // Int keys first, then the same keys again as Doubles: no new
        // ids, and the Int key column stays typed.
        let ints = Column::from_datums(&TypeKind::Integer, (0..n as i64).map(Datum::Int));
        let (ids, fresh) = set.intern(&[&ints], n);
        assert_eq!(ids, (0..n as u32).collect::<Vec<_>>());
        assert_eq!(fresh, (0..n).collect::<Vec<_>>());
        let doubles = Column::from_datums(
            &TypeKind::Double,
            (0..n as i64).map(|i| Datum::Double(i as f64)),
        );
        assert_eq!(set.intern(&[&doubles], n), (ids, vec![]));
        assert!(matches!(set.columns()[0], Column::Int { .. }));
        let missing = Column::from_datums(&TypeKind::Integer, [Datum::Int(-1), Datum::Null]);
        assert_eq!(set.lookup(&[&missing], 2), vec![EMPTY, EMPTY]);
        // NULL groups with NULL; -0.0 is its own key.
        let odd = Column::Generic(vec![Datum::Null, Datum::Double(-0.0), Datum::Null]);
        assert_eq!(
            set.intern(&[&odd], 3),
            (vec![n as u32, n as u32 + 1, n as u32], vec![0, 1])
        );
        assert_eq!(set.bytes(), set.recount_bytes());
    }

    #[test]
    fn partitions_spread_and_resalt() {
        let hashes = hash_keys(
            &[&Column::from_datums(
                &TypeKind::Integer,
                (0..8_000).map(Datum::Int),
            )],
            8_000,
        );
        for salt in 0..3 {
            let mut counts = [0usize; 8];
            for &h in &hashes {
                counts[partition_of(h, salt, 8)] += 1;
            }
            assert!(counts.iter().all(|&c| c > 700 && c < 1_300), "{counts:?}");
        }
        // A level-0 partition re-splits under the next salt.
        let mut counts = [0usize; 8];
        for &h in hashes.iter().filter(|&&h| partition_of(h, 0, 8) == 3) {
            counts[partition_of(h, 1, 8)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 60), "{counts:?}");
    }
}
