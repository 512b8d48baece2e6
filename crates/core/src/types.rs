//! The relational type system: scalar and complex column types (including
//! the semi-structured `ARRAY`/`MAP`/`MULTISET` types of paper §7.1 and the
//! `GEOMETRY` type of §7.3) and row types.

use std::fmt;

/// The shape of a value, without nullability.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TypeKind {
    Boolean,
    /// 64-bit signed integer; stands in for TINYINT..BIGINT.
    Integer,
    /// 64-bit IEEE float; stands in for FLOAT/REAL/DOUBLE/DECIMAL.
    Double,
    /// UTF-8 string; stands in for CHAR/VARCHAR of any length.
    Varchar,
    /// Days since the UNIX epoch.
    Date,
    /// Milliseconds since the UNIX epoch.
    Timestamp,
    /// A duration in milliseconds (SQL INTERVAL).
    Interval,
    /// Ordered collection of values of one element type (§7.1).
    Array(Box<RelType>),
    /// String-keyed map (§7.1); the MongoDB adapter exposes documents as a
    /// single `_MAP` column of this type.
    Map(Box<RelType>, Box<RelType>),
    /// Unordered collection with duplicates (§7.1).
    Multiset(Box<RelType>),
    /// OpenGIS geometry (§7.3). The concrete representation lives in
    /// `rcalcite-geo`; core only knows the type.
    Geometry,
    /// Top type: the value's type is not known statically. Used for
    /// dynamic `_MAP['k']` access before a CAST supplies a type.
    Any,
    /// The type of the NULL literal before coercion.
    Null,
}

impl TypeKind {
    /// Whether values of this kind are orderable with `<`/`>`.
    pub fn is_comparable(&self) -> bool {
        !matches!(self, TypeKind::Map(_, _) | TypeKind::Multiset(_))
    }

    /// Whether this is a numeric kind.
    pub fn is_numeric(&self) -> bool {
        matches!(self, TypeKind::Integer | TypeKind::Double)
    }

    pub fn is_temporal(&self) -> bool {
        matches!(
            self,
            TypeKind::Date | TypeKind::Timestamp | TypeKind::Interval
        )
    }
}

impl fmt::Display for TypeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeKind::Boolean => write!(f, "BOOLEAN"),
            TypeKind::Integer => write!(f, "INTEGER"),
            TypeKind::Double => write!(f, "DOUBLE"),
            TypeKind::Varchar => write!(f, "VARCHAR"),
            TypeKind::Date => write!(f, "DATE"),
            TypeKind::Timestamp => write!(f, "TIMESTAMP"),
            TypeKind::Interval => write!(f, "INTERVAL"),
            TypeKind::Array(e) => write!(f, "{} ARRAY", e.kind),
            TypeKind::Map(k, v) => write!(f, "MAP<{}, {}>", k.kind, v.kind),
            TypeKind::Multiset(e) => write!(f, "{} MULTISET", e.kind),
            TypeKind::Geometry => write!(f, "GEOMETRY"),
            TypeKind::Any => write!(f, "ANY"),
            TypeKind::Null => write!(f, "NULL"),
        }
    }
}

/// A column/expression type: kind plus nullability.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RelType {
    pub kind: TypeKind,
    pub nullable: bool,
}

impl RelType {
    pub fn new(kind: TypeKind, nullable: bool) -> Self {
        RelType { kind, nullable }
    }

    /// Non-nullable type of the given kind.
    pub fn not_null(kind: TypeKind) -> Self {
        RelType {
            kind,
            nullable: false,
        }
    }

    /// Nullable type of the given kind.
    pub fn nullable(kind: TypeKind) -> Self {
        RelType {
            kind,
            nullable: true,
        }
    }

    pub fn with_nullable(&self, nullable: bool) -> Self {
        RelType {
            kind: self.kind.clone(),
            nullable,
        }
    }

    /// The least restrictive type covering both inputs, used for set
    /// operations, CASE arms and comparison coercion. Returns `None` when
    /// the kinds are incompatible.
    pub fn least_restrictive(&self, other: &RelType) -> Option<RelType> {
        let nullable = self.nullable || other.nullable;
        if self.kind == other.kind {
            return Some(RelType::new(self.kind.clone(), nullable));
        }
        let kind = match (&self.kind, &other.kind) {
            (TypeKind::Null, k) | (k, TypeKind::Null) => k.clone(),
            (TypeKind::Any, k) | (k, TypeKind::Any) => k.clone(),
            (TypeKind::Integer, TypeKind::Double) | (TypeKind::Double, TypeKind::Integer) => {
                TypeKind::Double
            }
            // Timestamp +/- interval arithmetic stays temporal.
            (TypeKind::Timestamp, TypeKind::Interval)
            | (TypeKind::Interval, TypeKind::Timestamp) => TypeKind::Timestamp,
            _ => return None,
        };
        let nullable = nullable || self.kind == TypeKind::Null || other.kind == TypeKind::Null;
        Some(RelType::new(kind, nullable))
    }
}

impl fmt::Display for RelType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind)?;
        if !self.nullable {
            write!(f, " NOT NULL")?;
        }
        Ok(())
    }
}

/// A named field of a row type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    pub name: String,
    pub ty: RelType,
}

impl Field {
    pub fn new(name: impl Into<String>, ty: RelType) -> Self {
        Field {
            name: name.into(),
            ty,
        }
    }
}

/// The type of a relational expression's output rows.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RowType {
    pub fields: Vec<Field>,
}

impl RowType {
    pub fn new(fields: Vec<Field>) -> Self {
        RowType { fields }
    }

    pub fn empty() -> Self {
        RowType { fields: vec![] }
    }

    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// Case-insensitive lookup of a field index by name.
    pub fn field_index(&self, name: &str) -> Option<usize> {
        self.fields
            .iter()
            .position(|f| f.name.eq_ignore_ascii_case(name))
    }

    pub fn field(&self, i: usize) -> &Field {
        &self.fields[i]
    }

    pub fn field_names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }

    /// The type kind of every field, in order: the column kinds of this
    /// row type's batches.
    pub fn kinds(&self) -> Vec<TypeKind> {
        self.fields.iter().map(|f| f.ty.kind.clone()).collect()
    }

    /// Concatenation of two row types, as produced by a join.
    pub fn join(&self, right: &RowType) -> RowType {
        let mut fields = self.fields.clone();
        fields.extend(right.fields.iter().cloned());
        RowType { fields }
    }

    /// Returns a copy with every field made nullable (used for the outer
    /// side of outer joins).
    pub fn nullified(&self) -> RowType {
        RowType {
            fields: self
                .fields
                .iter()
                .map(|f| Field::new(f.name.clone(), f.ty.with_nullable(true)))
                .collect(),
        }
    }
}

impl fmt::Display for RowType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, fld) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", fld.name, fld.ty)?;
        }
        write!(f, ")")
    }
}

/// Builder-style helper for assembling row types in tests and adapters.
pub struct RowTypeBuilder {
    fields: Vec<Field>,
}

impl RowTypeBuilder {
    pub fn new() -> Self {
        RowTypeBuilder { fields: vec![] }
    }

    pub fn add(mut self, name: impl Into<String>, kind: TypeKind) -> Self {
        self.fields.push(Field::new(name, RelType::nullable(kind)));
        self
    }

    pub fn add_not_null(mut self, name: impl Into<String>, kind: TypeKind) -> Self {
        self.fields.push(Field::new(name, RelType::not_null(kind)));
        self
    }

    pub fn build(self) -> RowType {
        RowType::new(self.fields)
    }
}

impl Default for RowTypeBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn least_restrictive_numeric_widening() {
        let i = RelType::not_null(TypeKind::Integer);
        let d = RelType::nullable(TypeKind::Double);
        let lr = i.least_restrictive(&d).unwrap();
        assert_eq!(lr.kind, TypeKind::Double);
        assert!(lr.nullable);
    }

    #[test]
    fn least_restrictive_null_absorbs() {
        let n = RelType::nullable(TypeKind::Null);
        let v = RelType::not_null(TypeKind::Varchar);
        let lr = v.least_restrictive(&n).unwrap();
        assert_eq!(lr.kind, TypeKind::Varchar);
        assert!(lr.nullable);
    }

    #[test]
    fn least_restrictive_incompatible() {
        let b = RelType::not_null(TypeKind::Boolean);
        let v = RelType::not_null(TypeKind::Varchar);
        assert!(b.least_restrictive(&v).is_none());
    }

    #[test]
    fn timestamp_plus_interval() {
        let ts = RelType::not_null(TypeKind::Timestamp);
        let iv = RelType::not_null(TypeKind::Interval);
        assert_eq!(ts.least_restrictive(&iv).unwrap().kind, TypeKind::Timestamp);
    }

    #[test]
    fn row_type_lookup_is_case_insensitive() {
        let rt = RowTypeBuilder::new()
            .add("deptno", TypeKind::Integer)
            .add("sal", TypeKind::Double)
            .build();
        assert_eq!(rt.field_index("DEPTNO"), Some(0));
        assert_eq!(rt.field_index("Sal"), Some(1));
        assert_eq!(rt.field_index("nope"), None);
    }

    #[test]
    fn join_concatenates_fields() {
        let l = RowTypeBuilder::new().add("a", TypeKind::Integer).build();
        let r = RowTypeBuilder::new().add("b", TypeKind::Varchar).build();
        let j = l.join(&r);
        assert_eq!(j.arity(), 2);
        assert_eq!(j.field(1).name, "b");
    }

    #[test]
    fn nullified_makes_all_nullable() {
        let rt = RowTypeBuilder::new()
            .add_not_null("a", TypeKind::Integer)
            .build();
        assert!(!rt.field(0).ty.nullable);
        assert!(rt.nullified().field(0).ty.nullable);
    }

    #[test]
    fn display_forms() {
        let rt = RowTypeBuilder::new()
            .add_not_null("id", TypeKind::Integer)
            .build();
        assert_eq!(format!("{rt}"), "(id INTEGER NOT NULL)");
        let m = TypeKind::Map(
            Box::new(RelType::not_null(TypeKind::Varchar)),
            Box::new(RelType::nullable(TypeKind::Any)),
        );
        assert_eq!(format!("{m}"), "MAP<VARCHAR, ANY>");
    }

    #[test]
    fn comparability() {
        assert!(TypeKind::Integer.is_comparable());
        assert!(!TypeKind::Map(
            Box::new(RelType::nullable(TypeKind::Varchar)),
            Box::new(RelType::nullable(TypeKind::Any))
        )
        .is_comparable());
    }
}
