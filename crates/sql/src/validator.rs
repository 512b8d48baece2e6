//! Name-resolution scopes and semantic checks: the validator component of
//! Figure 1. Type checking happens as expressions are converted (types are
//! intrinsic to `RexNode`); this module owns identifier resolution,
//! ambiguity detection, and the streaming monotonicity validation of §7.2
//! ("streaming queries involving window aggregates require the presence of
//! monotonic or quasi-monotonic expressions in the GROUP BY clause").

use rcalcite_core::datum::Datum;
use rcalcite_core::error::{CalciteError, Result};
use rcalcite_core::metadata::MetadataQuery;
use rcalcite_core::rel::{Rel, RelOp};
use rcalcite_core::types::{RelType, TypeKind};

/// One column visible in a scope.
#[derive(Debug, Clone)]
pub struct ScopeCol {
    /// Table alias qualifying the column (lowercase).
    pub table: Option<String>,
    pub name: String,
    pub ty: RelType,
}

/// The set of columns visible to expressions at some point of a query.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    pub cols: Vec<ScopeCol>,
}

impl Scope {
    pub fn empty() -> Scope {
        Scope::default()
    }

    /// Scope exposing the output of a relational expression under an
    /// optional alias.
    pub fn from_rel(alias: Option<&str>, rel: &Rel) -> Scope {
        let alias = alias.map(|a| a.to_ascii_lowercase());
        Scope {
            cols: rel
                .row_type()
                .fields
                .iter()
                .map(|f| ScopeCol {
                    table: alias.clone(),
                    name: f.name.clone(),
                    ty: f.ty.clone(),
                })
                .collect(),
        }
    }

    /// Concatenation for joins: left columns first.
    pub fn join(mut self, right: Scope) -> Scope {
        self.cols.extend(right.cols);
        self
    }

    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// Resolves `[col]` or `[alias, col]` to (index, type). Ambiguous
    /// unqualified names are an error.
    pub fn resolve(&self, parts: &[String]) -> Result<(usize, RelType)> {
        match parts {
            [col] => {
                let mut found: Option<usize> = None;
                for (i, c) in self.cols.iter().enumerate() {
                    if c.name.eq_ignore_ascii_case(col) {
                        if found.is_some() {
                            return Err(CalciteError::validate(format!(
                                "column '{col}' is ambiguous"
                            )));
                        }
                        found = Some(i);
                    }
                }
                found
                    .map(|i| (i, self.cols[i].ty.clone()))
                    .ok_or_else(|| CalciteError::validate(format!("column '{col}' not found")))
            }
            [tbl, col] => {
                let tbl = tbl.to_ascii_lowercase();
                for (i, c) in self.cols.iter().enumerate() {
                    if c.table.as_deref() == Some(tbl.as_str()) && c.name.eq_ignore_ascii_case(col)
                    {
                        return Ok((i, c.ty.clone()));
                    }
                }
                Err(CalciteError::validate(format!(
                    "column '{tbl}.{col}' not found"
                )))
            }
            _ => Err(CalciteError::validate(format!(
                "cannot resolve identifier {:?}",
                parts
            ))),
        }
    }

    /// Indexes of the columns belonging to `alias` (for `alias.*`).
    pub fn columns_of(&self, alias: &str) -> Vec<usize> {
        let alias = alias.to_ascii_lowercase();
        self.cols
            .iter()
            .enumerate()
            .filter(|(_, c)| c.table.as_deref() == Some(alias.as_str()))
            .map(|(i, _)| i)
            .collect()
    }
}

/// Discovers the dynamic parameters of a compiled plan: `result[i]` is
/// the declared type of `?i` (as inferred during conversion; `ANY` when
/// no use narrowed it). The parameter count of a prepared statement is
/// `result.len()`.
pub fn collect_plan_params(rel: &Rel) -> Vec<RelType> {
    let mut found: Vec<Option<RelType>> = vec![];
    rel.visit_exprs(&mut |e| e.collect_params(&mut found));
    found
        .into_iter()
        .map(|t| t.unwrap_or(RelType::nullable(TypeKind::Any)))
        .collect()
}

/// Validates a set of bind values against a statement's parameter types:
/// the arity must match exactly, and each non-NULL value must be
/// coercible to the declared type (NULL binds to any parameter).
pub fn check_bindings(expected: &[RelType], values: &[Datum]) -> Result<()> {
    if values.len() != expected.len() {
        return Err(CalciteError::validate(format!(
            "statement takes {} parameter(s), {} bound",
            expected.len(),
            values.len()
        )));
    }
    for (i, (ty, v)) in expected.iter().zip(values).enumerate() {
        if v.is_null() {
            continue;
        }
        let vty = RelType::nullable(v.kind());
        if vty.least_restrictive(ty).is_none() {
            return Err(CalciteError::validate(format!(
                "parameter ?{i} expects {}, got {} value {v}",
                ty.kind, vty.kind
            )));
        }
    }
    Ok(())
}

/// Validates a streaming aggregate (§7.2): the converted Aggregate needs
/// a group key that is a column its input ascends on — the same
/// metadata ([`MetadataQuery::ascending_group_key`]) the batch aggregate
/// flushes finished windows by. Without one the query would block
/// forever.
pub fn check_stream_aggregate(agg: &Rel) -> Result<()> {
    let RelOp::Aggregate { group, .. } = &agg.op else {
        return Err(CalciteError::internal(
            "check_stream_aggregate expects an Aggregate",
        ));
    };
    if group.is_empty() {
        return Err(CalciteError::validate(
            "streaming aggregation without GROUP BY can never emit a result; \
             group by a monotonic expression such as TUMBLE(rowtime, ...)",
        ));
    }
    match MetadataQuery::standard().ascending_group_key(agg.input(0), group) {
        Some(_) => Ok(()),
        None => Err(CalciteError::validate(
            "streaming GROUP BY requires a monotonic or quasi-monotonic \
             expression (e.g. TUMBLE over the column the stream is ordered by)",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcalcite_core::catalog::{MemTable, Statistic, TableRef};
    use rcalcite_core::rel;
    use rcalcite_core::rex::{Op, RexNode};
    use rcalcite_core::traits::FieldCollation;
    use rcalcite_core::types::{RowTypeBuilder, TypeKind};

    fn orders() -> Rel {
        let t = MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("rowtime", TypeKind::Timestamp)
                .add_not_null("productid", TypeKind::Integer)
                .add("units", TypeKind::Integer)
                .build(),
            vec![],
        );
        rel::scan(TableRef::new("s", "orders", t))
    }

    #[test]
    fn resolve_qualified_and_unqualified() {
        let s = Scope::from_rel(Some("o"), &orders());
        assert_eq!(s.resolve(&["units".into()]).unwrap().0, 2);
        assert_eq!(s.resolve(&["o".into(), "rowtime".into()]).unwrap().0, 0);
        assert!(s.resolve(&["x".into(), "rowtime".into()]).is_err());
        assert!(s.resolve(&["nothere".into()]).is_err());
    }

    #[test]
    fn ambiguity_detection() {
        let s = Scope::from_rel(Some("a"), &orders()).join(Scope::from_rel(Some("b"), &orders()));
        assert!(s.resolve(&["units".into()]).is_err());
        // Qualification disambiguates; right side is offset by the left
        // arity.
        assert_eq!(s.resolve(&["b".into(), "units".into()]).unwrap().0, 5);
    }

    #[test]
    fn qualified_wildcard_columns() {
        let s = Scope::from_rel(Some("a"), &orders()).join(Scope::from_rel(Some("b"), &orders()));
        assert_eq!(s.columns_of("b"), vec![3, 4, 5]);
        assert!(s.columns_of("zzz").is_empty());
    }

    /// `GROUP BY` over a stream ordered on `rowtime` with a second,
    /// unordered timestamp `shipped`; each key computed by a projection.
    fn agg_over(keys: Vec<RexNode>) -> Rel {
        let t = MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("rowtime", TypeKind::Timestamp)
                .add_not_null("productid", TypeKind::Integer)
                .add("units", TypeKind::Integer)
                .add_not_null("shipped", TypeKind::Timestamp)
                .build(),
            vec![],
        )
        .with_statistic(Statistic::of_rows(0.0).with_collation(vec![FieldCollation::asc(0)]));
        let n = keys.len();
        let names = (0..n).map(|i| format!("g${i}")).collect();
        let input = rel::project(rel::scan(TableRef::new("s", "orders", t)), keys, names);
        rel::aggregate(input, (0..n).collect(), vec![])
    }

    fn col(i: usize, kind: TypeKind) -> RexNode {
        RexNode::input(i, RelType::not_null(kind))
    }

    /// `TUMBLE(rowtime, 1 h)`'s window start, as the converter emits it.
    fn tumble(i: usize) -> RexNode {
        let hour = RexNode::literal(
            Datum::Interval(3_600_000),
            RelType::not_null(TypeKind::Interval),
        );
        let ts = col(i, TypeKind::Timestamp);
        let offset = RexNode::call_typed(
            Op::Mod,
            vec![ts.clone(), hour],
            RelType::not_null(TypeKind::Interval),
        );
        RexNode::call_typed(
            Op::Minus,
            vec![ts, offset],
            RelType::not_null(TypeKind::Timestamp),
        )
    }

    #[test]
    fn monotonicity_of_tumble_and_rowtime() {
        // `rowtime` is the declared order; `shipped` is a timestamp too,
        // but unordered, so grouping on it could never flush.
        assert!(check_stream_aggregate(&agg_over(vec![tumble(0)])).is_ok());
        assert!(check_stream_aggregate(&agg_over(vec![col(0, TypeKind::Timestamp)])).is_ok());
        for key in [
            tumble(3),
            col(3, TypeKind::Timestamp),
            col(1, TypeKind::Integer),
        ] {
            let err = check_stream_aggregate(&agg_over(vec![key])).unwrap_err();
            assert!(err.to_string().contains("monotonic"), "{err}");
        }
    }

    #[test]
    fn stream_group_by_validation() {
        // productid alone: blocking, rejected.
        assert!(check_stream_aggregate(&agg_over(vec![col(1, TypeKind::Integer)])).is_err());
        // TUMBLE plus productid: fine (the paper's tumbling example).
        let paper = agg_over(vec![tumble(0), col(1, TypeKind::Integer)]);
        assert!(check_stream_aggregate(&paper).is_ok());
        // Empty group by on a stream: rejected.
        assert!(check_stream_aggregate(&agg_over(vec![])).is_err());
    }
}
