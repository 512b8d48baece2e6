//! Runtime values. `Datum` is the single value representation flowing
//! through every convention's executor, and the representation of literals
//! inside row expressions.

use crate::types::{RelType, TypeKind};
use std::any::Any;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Extension point for values whose representation core does not know
/// (e.g. GEOMETRY, provided by `rcalcite-geo`).
pub trait ExtValue: fmt::Debug + fmt::Display + Send + Sync {
    /// Name of the extension type ("geometry", ...).
    fn type_name(&self) -> &'static str;
    /// Downcast support.
    fn as_any(&self) -> &dyn Any;
    /// Equality against another extension value.
    fn ext_eq(&self, other: &dyn ExtValue) -> bool;
}

/// A single SQL value. `Null` is typed dynamically: the static type lives
/// in the enclosing expression.
#[derive(Clone, Debug, Default)]
pub enum Datum {
    #[default]
    Null,
    Bool(bool),
    Int(i64),
    Double(f64),
    Str(Arc<str>),
    /// Days since epoch.
    Date(i32),
    /// Milliseconds since epoch.
    Timestamp(i64),
    /// Duration in milliseconds.
    Interval(i64),
    Array(Arc<Vec<Datum>>),
    Map(Arc<BTreeMap<String, Datum>>),
    Ext(Arc<dyn ExtValue>),
}

/// A materialized tuple.
pub type Row = Vec<Datum>;

impl Datum {
    pub fn str(s: impl AsRef<str>) -> Datum {
        Datum::Str(Arc::from(s.as_ref()))
    }

    pub fn array(items: Vec<Datum>) -> Datum {
        Datum::Array(Arc::new(items))
    }

    pub fn map(entries: impl IntoIterator<Item = (String, Datum)>) -> Datum {
        Datum::Map(Arc::new(entries.into_iter().collect()))
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Datum::Null)
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Datum::Int(i) => Some(*i),
            Datum::Double(d) if d.fract() == 0.0 => Some(*d as i64),
            _ => None,
        }
    }

    pub fn as_double(&self) -> Option<f64> {
        match self {
            Datum::Int(i) => Some(*i as f64),
            Datum::Double(d) => Some(*d),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Datum::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Milliseconds-since-epoch view of temporal values.
    pub fn as_millis(&self) -> Option<i64> {
        match self {
            Datum::Timestamp(ms) | Datum::Interval(ms) => Some(*ms),
            Datum::Date(d) => Some(*d as i64 * 86_400_000),
            Datum::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The dynamic kind of this value, used for runtime type checks and
    /// coercion of `ANY`-typed expressions.
    pub fn kind(&self) -> TypeKind {
        match self {
            Datum::Null => TypeKind::Null,
            Datum::Bool(_) => TypeKind::Boolean,
            Datum::Int(_) => TypeKind::Integer,
            Datum::Double(_) => TypeKind::Double,
            Datum::Str(_) => TypeKind::Varchar,
            Datum::Date(_) => TypeKind::Date,
            Datum::Timestamp(_) => TypeKind::Timestamp,
            Datum::Interval(_) => TypeKind::Interval,
            Datum::Array(_) => TypeKind::Array(Box::new(RelType::nullable(TypeKind::Any))),
            Datum::Map(_) => TypeKind::Map(
                Box::new(RelType::not_null(TypeKind::Varchar)),
                Box::new(RelType::nullable(TypeKind::Any)),
            ),
            Datum::Ext(_) => TypeKind::Geometry,
        }
    }

    /// Rank used to totally order values of different kinds (NULL first,
    /// matching `NULLS FIRST` semantics of the default collation).
    fn type_rank(&self) -> u8 {
        match self {
            Datum::Null => 0,
            Datum::Bool(_) => 1,
            Datum::Int(_) | Datum::Double(_) => 2,
            Datum::Str(_) => 3,
            Datum::Date(_) => 4,
            Datum::Timestamp(_) => 5,
            Datum::Interval(_) => 6,
            Datum::Array(_) => 7,
            Datum::Map(_) => 8,
            Datum::Ext(_) => 9,
        }
    }

    /// SQL three-valued comparison: `None` when either side is NULL.
    pub fn sql_cmp(&self, other: &Datum) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.cmp(other))
    }
}

impl PartialEq for Datum {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Datum {}

impl PartialOrd for Datum {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Datum {
    /// Total order over all datums: NULL sorts first; numerics compare by
    /// value across Int/Double; incomparable kinds order by type rank.
    fn cmp(&self, other: &Self) -> Ordering {
        use Datum::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Double(a), Double(b)) => a.total_cmp(b),
            (Int(a), Double(b)) => (*a as f64).total_cmp(b),
            (Double(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (Timestamp(a), Timestamp(b)) => a.cmp(b),
            (Interval(a), Interval(b)) => a.cmp(b),
            (Array(a), Array(b)) => a.cmp(b),
            (Map(a), Map(b)) => a.cmp(b),
            (Ext(a), Ext(b)) => {
                if a.ext_eq(b.as_ref()) {
                    Ordering::Equal
                } else {
                    a.to_string().cmp(&b.to_string())
                }
            }
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl Hash for Datum {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Datum::Null => 0u8.hash(state),
            Datum::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Int and Double that compare equal must hash equal; hash all
            // numerics through the f64 bit pattern of their value.
            Datum::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Datum::Double(d) => {
                2u8.hash(state);
                d.to_bits().hash(state);
            }
            Datum::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Datum::Date(d) => {
                4u8.hash(state);
                d.hash(state);
            }
            Datum::Timestamp(t) => {
                5u8.hash(state);
                t.hash(state);
            }
            Datum::Interval(i) => {
                6u8.hash(state);
                i.hash(state);
            }
            Datum::Array(a) => {
                7u8.hash(state);
                a.hash(state);
            }
            Datum::Map(m) => {
                8u8.hash(state);
                for (k, v) in m.iter() {
                    k.hash(state);
                    v.hash(state);
                }
            }
            Datum::Ext(e) => {
                9u8.hash(state);
                e.to_string().hash(state);
            }
        }
    }
}

impl fmt::Display for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Datum::Null => write!(f, "NULL"),
            Datum::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Datum::Int(i) => write!(f, "{i}"),
            Datum::Double(d) => {
                if d.fract() == 0.0 && d.abs() < 1e15 {
                    write!(f, "{:.1}", d)
                } else {
                    write!(f, "{d}")
                }
            }
            Datum::Str(s) => write!(f, "{s}"),
            Datum::Date(d) => write!(f, "{}", format_date(*d)),
            Datum::Timestamp(ms) => write!(f, "{}", format_timestamp(*ms)),
            Datum::Interval(ms) => write!(f, "INTERVAL {ms}ms"),
            Datum::Array(a) => {
                write!(f, "[")?;
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Datum::Map(m) => {
                write!(f, "{{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")
            }
            Datum::Ext(e) => write!(f, "{e}"),
        }
    }
}

// ---------------------------------------------------------------------
// Columnar representation
// ---------------------------------------------------------------------

/// Removes the elements at `positions` (ascending), touching only the
/// suffix that starts at the first of them. A handful of positions —
/// the single-row DELETE — close their gaps by rotating each surviving
/// run down at memmove speed; rotation re-moves the removed elements
/// once per run, so past `k² > suffix` a one-pass swap compaction takes
/// over. O(suffix) either way.
pub fn remove_sorted<T>(v: &mut Vec<T>, positions: &[usize]) {
    let Some(&first) = positions.first() else {
        return;
    };
    let mut write = first;
    if positions.len() * positions.len() <= v.len() - first {
        for (k, &pos) in positions.iter().enumerate() {
            // `v[write..=pos]` holds the k + 1 removed so far.
            let run_end = positions.get(k + 1).copied().unwrap_or(v.len());
            v[write..run_end].rotate_left(k + 1);
            write += run_end - (pos + 1);
        }
    } else {
        let mut next = 0;
        for read in first..v.len() {
            if positions.get(next) == Some(&read) {
                next += 1;
            } else {
                v.swap(write, read);
                write += 1;
            }
        }
    }
    v.truncate(write);
}

/// Inserts `items` so that `items[k]` ends up at `at[k]` (ascending final
/// positions), shifting the suffix above the first slot once —
/// back to front, so a tail insert moves nothing.
pub fn insert_sorted<T: Default>(v: &mut Vec<T>, at: &[usize], items: Vec<T>) {
    let mut read = v.len();
    v.resize_with(read + items.len(), T::default);
    let mut write = v.len();
    for (&slot, item) in at.iter().zip(items).rev() {
        while write - 1 > slot {
            write -= 1;
            read -= 1;
            v.swap(write, read);
        }
        write -= 1;
        v[write] = item;
    }
}

/// One field of a batch of rows as a typed vector. This is the unit the
/// vectorized execution path operates on: kernels loop over the raw
/// `values` vectors instead of dispatching per [`Datum`]. Kinds without a
/// dedicated vector fall back to [`Column::Generic`].
///
/// For the typed variants, `valid[i] == false` marks SQL NULL at row `i`
/// (the corresponding `values[i]` is a don't-care filler).
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    Int {
        values: Vec<i64>,
        valid: Vec<bool>,
    },
    Double {
        values: Vec<f64>,
        valid: Vec<bool>,
    },
    Bool {
        values: Vec<bool>,
        valid: Vec<bool>,
    },
    Str {
        values: Vec<Arc<str>>,
        valid: Vec<bool>,
    },
    /// Row-major fallback for kinds without a typed vector (dates,
    /// intervals, arrays, maps, extension values, mixed columns).
    Generic(Vec<Datum>),
}

impl Column {
    /// An empty column whose representation suits `kind`.
    pub fn for_kind(kind: &TypeKind) -> Column {
        Column::for_kind_with_capacity(kind, 0)
    }

    pub fn for_kind_with_capacity(kind: &TypeKind, cap: usize) -> Column {
        match kind {
            TypeKind::Integer => Column::Int {
                values: Vec::with_capacity(cap),
                valid: Vec::with_capacity(cap),
            },
            TypeKind::Double => Column::Double {
                values: Vec::with_capacity(cap),
                valid: Vec::with_capacity(cap),
            },
            TypeKind::Boolean => Column::Bool {
                values: Vec::with_capacity(cap),
                valid: Vec::with_capacity(cap),
            },
            TypeKind::Varchar => Column::Str {
                values: Vec::with_capacity(cap),
                valid: Vec::with_capacity(cap),
            },
            _ => Column::Generic(Vec::with_capacity(cap)),
        }
    }

    /// Builds a column from datums, choosing the representation by `kind`.
    pub fn from_datums(kind: &TypeKind, datums: impl IntoIterator<Item = Datum>) -> Column {
        let it = datums.into_iter();
        let mut col = Column::for_kind_with_capacity(kind, it.size_hint().0);
        for d in it {
            col.push(d);
        }
        col
    }

    /// Builds a column from field `index` of each row.
    pub fn from_rows(kind: &TypeKind, rows: &[Row], index: usize) -> Column {
        Column::from_datums(kind, rows.iter().map(|r| r[index].clone()))
    }

    pub fn len(&self) -> usize {
        match self {
            Column::Int { values, .. } => values.len(),
            Column::Double { values, .. } => values.len(),
            Column::Bool { values, .. } => values.len(),
            Column::Str { values, .. } => values.len(),
            Column::Generic(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a datum. A value that does not fit the typed variant
    /// demotes the whole column to `Generic` first, so `push` never loses
    /// information.
    pub fn push(&mut self, d: Datum) {
        match (&mut *self, d) {
            (Column::Int { values, valid }, Datum::Int(x)) => {
                values.push(x);
                valid.push(true);
            }
            (Column::Int { values, valid }, Datum::Null) => {
                values.push(0);
                valid.push(false);
            }
            (Column::Double { values, valid }, Datum::Double(x)) => {
                values.push(x);
                valid.push(true);
            }
            (Column::Double { values, valid }, Datum::Null) => {
                values.push(0.0);
                valid.push(false);
            }
            (Column::Bool { values, valid }, Datum::Bool(x)) => {
                values.push(x);
                valid.push(true);
            }
            (Column::Bool { values, valid }, Datum::Null) => {
                values.push(false);
                valid.push(false);
            }
            (Column::Str { values, valid }, Datum::Str(x)) => {
                values.push(x);
                valid.push(true);
            }
            (Column::Str { values, valid }, Datum::Null) => {
                values.push(Arc::from(""));
                valid.push(false);
            }
            (Column::Generic(v), d) => v.push(d),
            (_, d) => {
                self.demote_to_generic();
                self.push(d);
            }
        }
    }

    pub fn push_null(&mut self) {
        self.push(Datum::Null);
    }

    fn demote_to_generic(&mut self) {
        if !matches!(self, Column::Generic(_)) {
            let datums: Vec<Datum> = (0..self.len()).map(|i| self.get(i)).collect();
            *self = Column::Generic(datums);
        }
    }

    /// The datum at row `i` (clones out of the vector).
    pub fn get(&self, i: usize) -> Datum {
        match self {
            Column::Int { values, valid } => {
                if valid[i] {
                    Datum::Int(values[i])
                } else {
                    Datum::Null
                }
            }
            Column::Double { values, valid } => {
                if valid[i] {
                    Datum::Double(values[i])
                } else {
                    Datum::Null
                }
            }
            Column::Bool { values, valid } => {
                if valid[i] {
                    Datum::Bool(values[i])
                } else {
                    Datum::Null
                }
            }
            Column::Str { values, valid } => {
                if valid[i] {
                    Datum::Str(values[i].clone())
                } else {
                    Datum::Null
                }
            }
            Column::Generic(v) => v[i].clone(),
        }
    }

    pub fn is_null(&self, i: usize) -> bool {
        match self {
            Column::Int { valid, .. }
            | Column::Double { valid, .. }
            | Column::Bool { valid, .. }
            | Column::Str { valid, .. } => !valid[i],
            Column::Generic(v) => v[i].is_null(),
        }
    }

    pub fn to_datums(&self) -> Vec<Datum> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }

    /// A new column holding `self[idx[0]], self[idx[1]], ...` — the
    /// selection-compaction / join-output primitive.
    pub fn gather(&self, idx: &[usize]) -> Column {
        fn take<T: Clone>(values: &[T], valid: &[bool], idx: &[usize]) -> (Vec<T>, Vec<bool>) {
            (
                idx.iter().map(|&i| values[i].clone()).collect(),
                idx.iter().map(|&i| valid[i]).collect(),
            )
        }
        match self {
            Column::Int { values, valid } => {
                let (values, valid) = take(values, valid, idx);
                Column::Int { values, valid }
            }
            Column::Double { values, valid } => {
                let (values, valid) = take(values, valid, idx);
                Column::Double { values, valid }
            }
            Column::Bool { values, valid } => {
                let (values, valid) = take(values, valid, idx);
                Column::Bool { values, valid }
            }
            Column::Str { values, valid } => {
                let (values, valid) = take(values, valid, idx);
                Column::Str { values, valid }
            }
            Column::Generic(v) => Column::Generic(idx.iter().map(|&i| v[i].clone()).collect()),
        }
    }

    /// A contiguous sub-column `[start, start + len)`.
    pub fn slice(&self, start: usize, len: usize) -> Column {
        let end = (start + len).min(self.len());
        match self {
            Column::Int { values, valid } => Column::Int {
                values: values[start..end].to_vec(),
                valid: valid[start..end].to_vec(),
            },
            Column::Double { values, valid } => Column::Double {
                values: values[start..end].to_vec(),
                valid: valid[start..end].to_vec(),
            },
            Column::Bool { values, valid } => Column::Bool {
                values: values[start..end].to_vec(),
                valid: valid[start..end].to_vec(),
            },
            Column::Str { values, valid } => Column::Str {
                values: values[start..end].to_vec(),
                valid: valid[start..end].to_vec(),
            },
            Column::Generic(v) => Column::Generic(v[start..end].to_vec()),
        }
    }

    /// Appends all rows of `other` (demoting to `Generic` on a
    /// representation mismatch).
    pub fn append(&mut self, other: &Column) {
        match (&mut *self, other) {
            (
                Column::Int { values, valid },
                Column::Int {
                    values: v2,
                    valid: n2,
                },
            ) => {
                values.extend_from_slice(v2);
                valid.extend_from_slice(n2);
            }
            (
                Column::Double { values, valid },
                Column::Double {
                    values: v2,
                    valid: n2,
                },
            ) => {
                values.extend_from_slice(v2);
                valid.extend_from_slice(n2);
            }
            (
                Column::Bool { values, valid },
                Column::Bool {
                    values: v2,
                    valid: n2,
                },
            ) => {
                values.extend_from_slice(v2);
                valid.extend_from_slice(n2);
            }
            (
                Column::Str { values, valid },
                Column::Str {
                    values: v2,
                    valid: n2,
                },
            ) => {
                values.extend_from_slice(v2);
                valid.extend_from_slice(n2);
            }
            _ => {
                for i in 0..other.len() {
                    self.push(other.get(i));
                }
            }
        }
    }

    /// Overwrites row `i` (demoting to `Generic` when `d` does not fit the
    /// typed variant, like [`Column::push`]).
    pub fn set(&mut self, i: usize, d: Datum) {
        match (&mut *self, d) {
            (Column::Int { values, valid }, Datum::Int(x)) => (values[i], valid[i]) = (x, true),
            (Column::Double { values, valid }, Datum::Double(x)) => {
                (values[i], valid[i]) = (x, true)
            }
            (Column::Bool { values, valid }, Datum::Bool(x)) => (values[i], valid[i]) = (x, true),
            (Column::Str { values, valid }, Datum::Str(x)) => (values[i], valid[i]) = (x, true),
            (Column::Generic(v), d) => v[i] = d,
            // NULL takes the filler `push` gives it, so a column patched
            // in place equals one built from the same datums.
            (Column::Int { values, valid }, Datum::Null) => (values[i], valid[i]) = (0, false),
            (Column::Double { values, valid }, Datum::Null) => (values[i], valid[i]) = (0.0, false),
            (Column::Bool { values, valid }, Datum::Null) => (values[i], valid[i]) = (false, false),
            (Column::Str { values, valid }, Datum::Null) => {
                (values[i], valid[i]) = (Arc::from(""), false)
            }
            (_, d) => {
                self.demote_to_generic();
                self.set(i, d);
            }
        }
    }

    /// Removes the rows at `positions` (ascending) in one compaction pass.
    pub fn remove_sorted(&mut self, positions: &[usize]) {
        match self {
            Column::Int { values, valid } => {
                remove_sorted(values, positions);
                remove_sorted(valid, positions);
            }
            Column::Double { values, valid } => {
                remove_sorted(values, positions);
                remove_sorted(valid, positions);
            }
            Column::Bool { values, valid } => {
                remove_sorted(values, positions);
                remove_sorted(valid, positions);
            }
            Column::Str { values, valid } => {
                remove_sorted(values, positions);
                remove_sorted(valid, positions);
            }
            Column::Generic(v) => remove_sorted(v, positions),
        }
    }

    /// Inserts the rows of `other` so that row `k` lands at `at[k]`
    /// (ascending final positions); demotes to `Generic` on a
    /// representation mismatch, like [`Column::append`].
    pub fn insert_sorted(&mut self, at: &[usize], other: Column) {
        match (&mut *self, other) {
            (
                Column::Int { values, valid },
                Column::Int {
                    values: v2,
                    valid: n2,
                },
            ) => {
                insert_sorted(values, at, v2);
                insert_sorted(valid, at, n2);
            }
            (
                Column::Double { values, valid },
                Column::Double {
                    values: v2,
                    valid: n2,
                },
            ) => {
                insert_sorted(values, at, v2);
                insert_sorted(valid, at, n2);
            }
            (
                Column::Bool { values, valid },
                Column::Bool {
                    values: v2,
                    valid: n2,
                },
            ) => {
                insert_sorted(values, at, v2);
                insert_sorted(valid, at, n2);
            }
            (
                Column::Str { values, valid },
                Column::Str {
                    values: v2,
                    valid: n2,
                },
            ) => {
                insert_sorted(values, at, v2);
                insert_sorted(valid, at, n2);
            }
            (_, other) => {
                self.demote_to_generic();
                let Column::Generic(v) = self else {
                    unreachable!("just demoted")
                };
                insert_sorted(v, at, other.to_datums());
            }
        }
    }

    /// A column of `n` copies of `d`.
    pub fn repeat(d: &Datum, n: usize) -> Column {
        match d {
            Datum::Int(x) => Column::Int {
                values: vec![*x; n],
                valid: vec![true; n],
            },
            Datum::Double(x) => Column::Double {
                values: vec![*x; n],
                valid: vec![true; n],
            },
            Datum::Bool(x) => Column::Bool {
                values: vec![*x; n],
                valid: vec![true; n],
            },
            Datum::Str(x) => Column::Str {
                values: vec![x.clone(); n],
                valid: vec![true; n],
            },
            other => Column::Generic(vec![other.clone(); n]),
        }
    }
}

/// Pivots equal-length columns back into rows.
pub fn columns_to_rows(columns: &[Column]) -> Vec<Row> {
    let n = columns.first().map_or(0, Column::len);
    (0..n)
        .map(|i| columns.iter().map(|c| c.get(i)).collect())
        .collect()
}

/// Days-since-epoch to `YYYY-MM-DD` (proleptic Gregorian).
pub fn format_date(epoch_days: i32) -> String {
    let (y, m, d) = civil_from_days(epoch_days as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Milliseconds-since-epoch to `YYYY-MM-DD HH:MM:SS[.mmm]`.
pub fn format_timestamp(ms: i64) -> String {
    let days = ms.div_euclid(86_400_000);
    let rem = ms.rem_euclid(86_400_000);
    let (y, mo, d) = civil_from_days(days);
    let s = rem / 1000;
    let (h, mi, se) = (s / 3600, (s % 3600) / 60, s % 60);
    let millis = rem % 1000;
    if millis == 0 {
        format!("{y:04}-{mo:02}-{d:02} {h:02}:{mi:02}:{se:02}")
    } else {
        format!("{y:04}-{mo:02}-{d:02} {h:02}:{mi:02}:{se:02}.{millis:03}")
    }
}

/// `YYYY-MM-DD` to days since epoch. Returns `None` on malformed input.
pub fn parse_date(s: &str) -> Option<i32> {
    let mut it = s.split('-');
    let y: i64 = it.next()?.parse().ok()?;
    let m: i64 = it.next()?.parse().ok()?;
    let d: i64 = it.next()?.parse().ok()?;
    if it.next().is_some() || !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return None;
    }
    Some(days_from_civil(y, m, d) as i32)
}

/// `YYYY-MM-DD[ HH:MM[:SS[.mmm]]]` to ms since epoch.
pub fn parse_timestamp(s: &str) -> Option<i64> {
    let (date_part, time_part) = match s.find(' ') {
        Some(i) => (&s[..i], Some(&s[i + 1..])),
        None => (s, None),
    };
    let days = parse_date(date_part)? as i64;
    let mut ms = days * 86_400_000;
    if let Some(t) = time_part {
        let (hms, frac) = match t.find('.') {
            Some(i) => (&t[..i], Some(&t[i + 1..])),
            None => (t, None),
        };
        let mut it = hms.split(':');
        let h: i64 = it.next()?.parse().ok()?;
        let mi: i64 = it.next()?.parse().ok()?;
        let se: i64 = it.next().map(|x| x.parse().ok()).unwrap_or(Some(0))?;
        if h > 23 || mi > 59 || se > 59 {
            return None;
        }
        ms += (h * 3600 + mi * 60 + se) * 1000;
        if let Some(fr) = frac {
            let padded = format!("{:0<3}", fr);
            ms += padded[..3].parse::<i64>().ok()?;
        }
    }
    Some(ms)
}

// Howard Hinnant's civil-days algorithms.
fn days_from_civil(y: i64, m: i64, d: i64) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = (m + 9) % 12;
    let doy = (153 * mp + 2) / 5 + d - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe - 719_468
}

fn civil_from_days(z: i64) -> (i64, i64, i64) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(d: &Datum) -> u64 {
        let mut h = DefaultHasher::new();
        d.hash(&mut h);
        h.finish()
    }

    #[test]
    fn cross_numeric_equality_and_hash() {
        let i = Datum::Int(42);
        let d = Datum::Double(42.0);
        assert_eq!(i, d);
        assert_eq!(hash_of(&i), hash_of(&d));
        assert_ne!(Datum::Int(42), Datum::Double(42.5));
    }

    #[test]
    fn null_sorts_first() {
        let mut v = [Datum::Int(1), Datum::Null, Datum::Int(-5)];
        v.sort();
        assert_eq!(v[0], Datum::Null);
        assert_eq!(v[1], Datum::Int(-5));
    }

    #[test]
    fn sql_cmp_is_three_valued() {
        assert_eq!(Datum::Null.sql_cmp(&Datum::Int(1)), None);
        assert_eq!(Datum::Int(1).sql_cmp(&Datum::Int(2)), Some(Ordering::Less));
    }

    #[test]
    fn date_round_trip() {
        for s in ["1970-01-01", "2018-06-10", "1969-12-31", "2000-02-29"] {
            let d = parse_date(s).unwrap();
            assert_eq!(format_date(d), s);
        }
        assert_eq!(parse_date("1970-01-02"), Some(1));
        assert_eq!(parse_date("1969-12-31"), Some(-1));
        assert!(parse_date("not-a-date").is_none());
        assert!(parse_date("1970-13-01").is_none());
    }

    #[test]
    fn timestamp_round_trip() {
        let ms = parse_timestamp("2018-06-10 12:30:45").unwrap();
        assert_eq!(format_timestamp(ms), "2018-06-10 12:30:45");
        let ms = parse_timestamp("2018-06-10 12:30:45.250").unwrap();
        assert_eq!(format_timestamp(ms), "2018-06-10 12:30:45.250");
        assert_eq!(parse_timestamp("1970-01-01 00:00:00"), Some(0));
    }

    #[test]
    fn array_and_map_display() {
        let a = Datum::array(vec![Datum::Int(1), Datum::str("x")]);
        assert_eq!(a.to_string(), "[1, x]");
        let m = Datum::map(vec![("k".to_string(), Datum::Int(7))]);
        assert_eq!(m.to_string(), "{k: 7}");
    }

    #[test]
    fn as_millis_conversions() {
        assert_eq!(Datum::Date(1).as_millis(), Some(86_400_000));
        assert_eq!(Datum::Timestamp(5).as_millis(), Some(5));
        assert_eq!(Datum::Interval(7).as_millis(), Some(7));
    }

    #[test]
    fn double_display_keeps_decimal_point() {
        assert_eq!(Datum::Double(3.0).to_string(), "3.0");
        assert_eq!(Datum::Double(3.25).to_string(), "3.25");
    }

    #[test]
    fn column_round_trip_per_kind() {
        let cases = vec![
            (
                TypeKind::Integer,
                vec![Datum::Int(1), Datum::Null, Datum::Int(i64::MAX)],
            ),
            (
                TypeKind::Double,
                vec![Datum::Double(1.5), Datum::Null, Datum::Double(-0.0)],
            ),
            (
                TypeKind::Boolean,
                vec![Datum::Bool(true), Datum::Null, Datum::Bool(false)],
            ),
            (
                TypeKind::Varchar,
                vec![Datum::str("a"), Datum::Null, Datum::str("")],
            ),
            (TypeKind::Date, vec![Datum::Date(3), Datum::Null]),
        ];
        for (kind, datums) in cases {
            let col = Column::from_datums(&kind, datums.clone());
            assert_eq!(col.len(), datums.len());
            assert_eq!(col.to_datums(), datums, "kind {kind:?}");
            assert!(col.is_null(1));
        }
    }

    /// `remove_sorted` / `insert_sorted` against the obvious loops, on
    /// both sides of the rotate-vs-swap switch, for vectors and columns.
    #[test]
    fn sorted_removal_and_insertion_match_naive() {
        let base: Vec<i64> = (0..40).collect();
        for positions in [
            vec![],
            vec![39],
            vec![0],
            vec![17],
            vec![3, 4, 30],
            vec![0, 1, 2, 3, 20, 21, 22, 38, 39],
            (0..40).step_by(2).collect(),
            (0..40).collect(),
        ] {
            let mut naive = base.clone();
            for p in positions.iter().rev() {
                naive.remove(*p);
            }
            let mut v = base.clone();
            remove_sorted(&mut v, &positions);
            assert_eq!(v, naive, "remove {positions:?}");
            let mut col =
                Column::from_datums(&TypeKind::Integer, base.iter().map(|x| Datum::Int(*x)));
            col.remove_sorted(&positions);
            assert_eq!(
                col.to_datums(),
                naive.iter().map(|x| Datum::Int(*x)).collect::<Vec<_>>()
            );

            // Putting the removed elements back restores the original.
            let items: Vec<i64> = positions.iter().map(|p| base[*p]).collect();
            insert_sorted(&mut v, &positions, items.clone());
            assert_eq!(v, base, "insert {positions:?}");
            let back = Column::from_datums(&TypeKind::Integer, items.into_iter().map(Datum::Int));
            col.insert_sorted(&positions, back);
            assert_eq!(col.len(), base.len());
            assert_eq!(col.get(17), Datum::Int(17));
        }
    }

    #[test]
    fn column_set_and_insert_demote_on_mismatch() {
        let mut c = Column::from_datums(&TypeKind::Integer, [Datum::Int(1), Datum::Int(2)]);
        c.set(0, Datum::Null);
        c.set(1, Datum::Int(9));
        assert!(matches!(c, Column::Int { .. }));
        assert_eq!(c.to_datums(), vec![Datum::Null, Datum::Int(9)]);
        c.set(0, Datum::str("x"));
        assert!(matches!(c, Column::Generic(_)));
        assert_eq!(c.to_datums(), vec![Datum::str("x"), Datum::Int(9)]);
        let mut c = Column::from_datums(&TypeKind::Integer, [Datum::Int(1)]);
        c.insert_sorted(
            &[0],
            Column::from_datums(&TypeKind::Varchar, [Datum::str("y")]),
        );
        assert_eq!(c.to_datums(), vec![Datum::str("y"), Datum::Int(1)]);
    }

    #[test]
    fn column_demotes_on_mismatched_push() {
        let mut col = Column::from_datums(&TypeKind::Integer, vec![Datum::Int(1)]);
        col.push(Datum::str("x"));
        assert!(matches!(col, Column::Generic(_)));
        assert_eq!(col.to_datums(), vec![Datum::Int(1), Datum::str("x")]);
    }

    #[test]
    fn column_gather_slice_append_repeat() {
        let col = Column::from_datums(
            &TypeKind::Integer,
            vec![Datum::Int(10), Datum::Null, Datum::Int(30), Datum::Int(40)],
        );
        assert_eq!(
            col.gather(&[3, 1]).to_datums(),
            vec![Datum::Int(40), Datum::Null]
        );
        assert_eq!(
            col.slice(1, 2).to_datums(),
            vec![Datum::Null, Datum::Int(30)]
        );
        let mut a = col.slice(0, 2);
        a.append(&col.slice(2, 2));
        assert_eq!(a.to_datums(), col.to_datums());
        // Mixed-representation append demotes.
        let mut b = col.slice(0, 1);
        b.append(&Column::repeat(&Datum::str("s"), 2));
        assert_eq!(b.len(), 3);
        assert_eq!(b.get(2), Datum::str("s"));
        assert_eq!(Column::repeat(&Datum::Null, 2).to_datums().len(), 2);
    }

    #[test]
    fn columns_to_rows_pivots() {
        let a = Column::from_datums(&TypeKind::Integer, vec![Datum::Int(1), Datum::Int(2)]);
        let b = Column::from_datums(&TypeKind::Varchar, vec![Datum::str("x"), Datum::Null]);
        assert_eq!(
            columns_to_rows(&[a, b]),
            vec![
                vec![Datum::Int(1), Datum::str("x")],
                vec![Datum::Int(2), Datum::Null],
            ]
        );
        assert!(columns_to_rows(&[]).is_empty());
    }

    #[test]
    fn total_order_across_kinds_is_consistent() {
        // Reflexivity/antisymmetry smoke check over a mixed set.
        let vals = [
            Datum::Null,
            Datum::Bool(false),
            Datum::Int(0),
            Datum::str("a"),
            Datum::Date(0),
        ];
        for a in &vals {
            for b in &vals {
                let ab = a.cmp(b);
                let ba = b.cmp(a);
                assert_eq!(ab, ba.reverse());
            }
        }
    }
}
