//! Shared machinery for adapters: converting row-expression predicates to
//! the backends' simple comparison form, and the query log each adapter
//! keeps of the native-language queries it issued (the evidence for the
//! paper's Table 2).

use parking_lot::RwLock;
use rcalcite_backends::common::{CmpOp, ColPredicate};
use rcalcite_core::datum::Datum;
use rcalcite_core::rex::{Op, RexNode};
use std::sync::Arc;

/// Converts a conjunctive condition into simple column predicates.
/// Returns `None` if any conjunct is not of the form
/// `col <cmp> literal` / `literal <cmp> col` / `col IS [NOT] NULL` /
/// `col LIKE literal` — in which case the filter cannot be pushed to a
/// backend and stays in the querying engine.
pub fn rex_to_predicates(cond: &RexNode) -> Option<Vec<ColPredicate>> {
    let mut out = vec![];
    for c in cond.conjuncts() {
        out.push(conjunct_to_predicate(&c)?);
    }
    Some(out)
}

/// `cond` with each `?` standing as a NULL literal: the shape the
/// backend query takes once `run` binds an execution's values. The
/// planner-side "can the backend take this?" tests run the same
/// conversion as `run` over it, so a parameterised filter pushes down
/// exactly when its literal form would.
pub fn placeholders(cond: &RexNode) -> RexNode {
    let mut params = vec![];
    cond.collect_params(&mut params);
    cond.bind_params(&vec![Datum::Null; params.len()])
        .expect("a placeholder for every parameter")
}

fn conjunct_to_predicate(c: &RexNode) -> Option<ColPredicate> {
    let RexNode::Call { op, args, .. } = c else {
        return None;
    };
    let column = |e| strip_cast(e).as_input_ref();
    match op {
        Op::IsNull | Op::IsNotNull => Some(ColPredicate::new(
            column(&args[0])?,
            cmp_op(op)?,
            Datum::Null,
        )),
        Op::Like => {
            let pat = args[1].as_literal()?.clone();
            Some(ColPredicate::new(column(&args[0])?, CmpOp::Like, pat))
        }
        _ => {
            let (col, cmp, lit) = comparison(op, args, column)?;
            Some(ColPredicate::new(col, cmp, lit.clone()))
        }
    }
}

/// The backend operator for a SQL comparison, `IS [NOT] NULL` or `LIKE`.
pub(crate) fn cmp_op(op: &Op) -> Option<CmpOp> {
    Some(match op {
        Op::Eq => CmpOp::Eq,
        Op::Ne => CmpOp::Ne,
        Op::Lt => CmpOp::Lt,
        Op::Le => CmpOp::Le,
        Op::Gt => CmpOp::Gt,
        Op::Ge => CmpOp::Ge,
        Op::Like => CmpOp::Like,
        Op::IsNull => CmpOp::IsNull,
        Op::IsNotNull => CmpOp::IsNotNull,
        _ => return None,
    })
}

/// Reads `x <op> literal` or `literal <op> x`, `op` one of the six
/// comparisons, as `(x, op as seen from x, literal)`, with `x` read
/// through `operand`.
pub(crate) fn comparison<'a, T>(
    op: &Op,
    args: &'a [RexNode],
    operand: impl Fn(&'a RexNode) -> Option<T>,
) -> Option<(T, CmpOp, &'a Datum)> {
    let side = op.swapped()?;
    if let (Some(x), Some(lit)) = (operand(&args[0]), args[1].as_literal()) {
        return Some((x, cmp_op(op)?, lit));
    }
    let (lit, x) = (args[0].as_literal()?, operand(&args[1])?);
    Some((x, cmp_op(&side)?, lit))
}

/// Looks through CASTs (backends compare dynamically-typed values).
fn strip_cast(e: &RexNode) -> &RexNode {
    match e {
        RexNode::Call {
            op: Op::Cast, args, ..
        } => strip_cast(&args[0]),
        other => other,
    }
}

/// A log of native-language query texts issued by an adapter. Cloneable
/// handle; shared between the executor and whoever wants to inspect the
/// generated queries.
#[derive(Clone, Default)]
pub struct QueryLog {
    entries: Arc<RwLock<Vec<String>>>,
}

impl QueryLog {
    pub fn new() -> QueryLog {
        QueryLog::default()
    }

    pub fn record(&self, query: impl Into<String>) {
        self.entries.write().push(query.into());
    }

    pub fn entries(&self) -> Vec<String> {
        self.entries.read().clone()
    }

    pub fn last(&self) -> Option<String> {
        self.entries.read().last().cloned()
    }

    pub fn clear(&self) {
        self.entries.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcalcite_core::types::{RelType, TypeKind};

    fn col(i: usize) -> RexNode {
        RexNode::input(i, RelType::nullable(TypeKind::Integer))
    }

    #[test]
    fn simple_conjunction_converts() {
        let cond = RexNode::and_all(vec![
            col(0).gt(RexNode::lit_int(5)),
            col(1).is_not_null(),
            RexNode::lit_int(10).ge(col(2)), // literal on the left: 10 >= c2  =>  c2 <= 10
        ]);
        let preds = rex_to_predicates(&cond).unwrap();
        assert_eq!(preds.len(), 3);
        assert_eq!(preds[0].to_string(), "$0 > 5");
        assert_eq!(preds[1].op, CmpOp::IsNotNull);
        assert_eq!(preds[2].to_string(), "$2 <= 10");
    }

    #[test]
    fn cast_is_transparent() {
        let cond = col(0)
            .cast(RelType::nullable(TypeKind::Double))
            .gt(RexNode::lit_double(1.5));
        let preds = rex_to_predicates(&cond).unwrap();
        assert_eq!(preds[0].col, 0);
    }

    #[test]
    fn complex_conditions_are_rejected() {
        // col + 1 > 5 is not a simple predicate.
        let sum = RexNode::call(Op::Plus, vec![col(0), RexNode::lit_int(1)]);
        assert!(rex_to_predicates(&sum.gt(RexNode::lit_int(5))).is_none());
        // col = col is not pushable.
        assert!(rex_to_predicates(&col(0).eq(col(1))).is_none());
        // OR at the top is not a conjunction of simple predicates.
        let or = RexNode::or_all(vec![
            col(0).gt(RexNode::lit_int(1)),
            col(1).gt(RexNode::lit_int(2)),
        ]);
        assert!(rex_to_predicates(&or).is_none());
    }

    #[test]
    fn query_log() {
        let log = QueryLog::new();
        log.record("SELECT 1");
        log.record("SELECT 2");
        assert_eq!(log.entries().len(), 2);
        assert_eq!(log.last().unwrap(), "SELECT 2");
        log.clear();
        assert!(log.last().is_none());
    }
}
