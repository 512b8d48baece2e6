//! Join orientation for the cost-based planner. The join *order* of an
//! inner-join region comes from one dynamic program
//! ([`crate::planner::join_order`]) that seeds the Volcano memo; this
//! rule only swaps the two inputs of a join, because which side is which
//! is a physical choice: the hash join's build side, the inner side of an
//! index-loop join, the left side of an adapter's join.

use crate::rel::{self, JoinKind, RelKind, RelOp};
use crate::rex::RexNode;
use crate::rules::{Pattern, Rule, RuleCall};

/// `A ⋈ B` → `Project(B ⋈ A)` for inner joins; the projection restores the
/// original column order.
pub struct JoinCommuteRule;

impl Rule for JoinCommuteRule {
    fn name(&self) -> &str {
        "JoinCommuteRule"
    }

    fn pattern(&self) -> Pattern {
        Pattern::of(RelKind::Join)
    }

    fn on_match(&self, call: &mut RuleCall) {
        let join_node = call.rel(0);
        let (kind, condition) = match &join_node.op {
            RelOp::Join { kind, condition } => (*kind, condition.clone()),
            _ => return,
        };
        if kind != JoinKind::Inner {
            return;
        }
        let left = join_node.input(0).clone();
        let right = join_node.input(1).clone();
        let l_arity = left.row_type().arity();
        let r_arity = right.row_type().arity();

        // Old coordinate i: left if i < l_arity (new position r_arity + i),
        // right otherwise (new position i - l_arity).
        let new_cond = condition.map_input_refs(&|i| {
            if i < l_arity {
                r_arity + i
            } else {
                i - l_arity
            }
        });
        let swapped = rel::join(right, left, kind, new_cond);

        // Restore original column order with a projection.
        let rt = join_node.row_type();
        let mut exprs = Vec::with_capacity(l_arity + r_arity);
        let mut names = Vec::with_capacity(l_arity + r_arity);
        for i in 0..l_arity {
            exprs.push(RexNode::input(r_arity + i, rt.field(i).ty.clone()));
            names.push(rt.field(i).name.clone());
        }
        for i in 0..r_arity {
            exprs.push(RexNode::input(i, rt.field(l_arity + i).ty.clone()));
            names.push(rt.field(l_arity + i).name.clone());
        }
        call.transform_to(rel::project(swapped, exprs, names));
    }
}

#[cfg(test)]
pub(crate) use tests::JoinAssociateRule;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{MemTable, TableRef};
    use crate::datum::Datum;
    use crate::metadata::MetadataQuery;
    use crate::rel::Rel;
    use crate::types::{RelType, RowTypeBuilder, TypeKind};

    /// `(A ⋈ B) ⋈ C` → `A ⋈ (B ⋈ C)` for inner joins; conjuncts are
    /// assigned to the innermost join that covers their column
    /// references. Planning uses the dynamic program instead; the search
    /// engine's tests use this rule to drive set merges through the memo.
    pub(crate) struct JoinAssociateRule;

    impl Rule for JoinAssociateRule {
        fn name(&self) -> &str {
            "JoinAssociateRule"
        }

        fn pattern(&self) -> Pattern {
            Pattern::with_children(
                RelKind::Join,
                vec![Pattern::of(RelKind::Join), Pattern::any()],
            )
        }

        fn on_match(&self, call: &mut RuleCall) {
            let top = call.rel(0);
            let bottom = call.rel(1);
            let (top_kind, top_cond) = match &top.op {
                RelOp::Join { kind, condition } => (*kind, condition.clone()),
                _ => return,
            };
            let (bot_kind, bot_cond) = match &bottom.op {
                RelOp::Join { kind, condition } => (*kind, condition.clone()),
                _ => return,
            };
            if top_kind != JoinKind::Inner || bot_kind != JoinKind::Inner {
                return;
            }
            let a = bottom.input(0).clone();
            let b = bottom.input(1).clone();
            let c = top.input(1).clone();
            let a_arity = a.row_type().arity();

            // All conjuncts live in (A, B, C) coordinates: the bottom join's
            // condition already uses the (A, B) prefix.
            let mut conjuncts = bot_cond.conjuncts();
            conjuncts.extend(top_cond.conjuncts());

            // A conjunct goes to the inner (B ⋈ C) join iff it references no A
            // column; inner coordinates are shifted down by |A|.
            let mut inner = vec![];
            let mut outer = vec![];
            for cj in conjuncts {
                let refs = cj.input_refs();
                if refs.iter().all(|r| *r >= a_arity) {
                    inner.push(cj.shift(-(a_arity as isize)));
                } else {
                    outer.push(cj);
                }
            }
            let bc = rel::join(b, c, JoinKind::Inner, RexNode::and_all(inner));
            let new_top = rel::join(a, bc, JoinKind::Inner, RexNode::and_all(outer));
            call.transform_to(new_top);
        }
    }

    fn int_ty() -> RelType {
        RelType::not_null(TypeKind::Integer)
    }

    fn table(name: &str, cols: &[&str], rows: Vec<Vec<i64>>) -> Rel {
        let mut b = RowTypeBuilder::new();
        for c in cols {
            b = b.add_not_null(*c, TypeKind::Integer);
        }
        let data = rows
            .into_iter()
            .map(|r| r.into_iter().map(Datum::Int).collect())
            .collect();
        rel::scan(TableRef::new("s", name, MemTable::new(b.build(), data)))
    }

    fn fire(rule: &dyn Rule, root: &Rel) -> Vec<Rel> {
        let mq = MetadataQuery::standard();
        match rule.pattern().match_tree(root) {
            Some(binds) => {
                let mut call = RuleCall::new(binds, &mq);
                rule.on_match(&mut call);
                call.into_results()
            }
            None => vec![],
        }
    }

    #[test]
    fn commute_preserves_row_type() {
        let l = table("l", &["a", "b"], vec![]);
        let r = table("r", &["c"], vec![]);
        let j = rel::join(
            l,
            r,
            JoinKind::Inner,
            RexNode::input(0, int_ty()).eq(RexNode::input(2, int_ty())),
        );
        let new = fire(&JoinCommuteRule, &j).pop().unwrap();
        assert_eq!(new.kind(), RelKind::Project);
        assert_eq!(new.row_type(), j.row_type());
        let inner = new.input(0);
        assert_eq!(inner.kind(), RelKind::Join);
        // Condition remapped: $0=$2 over (l,r) becomes $1=$0 over (r,l).
        if let RelOp::Join { condition, .. } = &inner.op {
            assert_eq!(condition.digest(), "($1 = $0)");
        }
    }

    #[test]
    fn commute_skips_outer_joins() {
        let l = table("l", &["a"], vec![]);
        let r = table("r", &["b"], vec![]);
        let j = rel::join(l, r, JoinKind::Left, RexNode::true_lit());
        assert!(fire(&JoinCommuteRule, &j).is_empty());
    }

    #[test]
    fn associate_rebalances_and_routes_conjuncts() {
        let a = table("a", &["x"], vec![]);
        let b = table("b", &["y"], vec![]);
        let c = table("c", &["z"], vec![]);
        // (a ⋈[x=y] b) ⋈[y=z] c
        let ab = rel::join(
            a,
            b,
            JoinKind::Inner,
            RexNode::input(0, int_ty()).eq(RexNode::input(1, int_ty())),
        );
        let abc = rel::join(
            ab,
            c,
            JoinKind::Inner,
            RexNode::input(1, int_ty()).eq(RexNode::input(2, int_ty())),
        );
        let new = fire(&JoinAssociateRule, &abc).pop().unwrap();
        // Shape: a ⋈ (b ⋈ c).
        assert_eq!(new.kind(), RelKind::Join);
        assert_eq!(new.input(0).kind(), RelKind::Scan);
        assert_eq!(new.input(1).kind(), RelKind::Join);
        assert_eq!(new.row_type(), abc.row_type());
        // y=z went inside (as $0=$1 of the b,c join), x=y stayed outside.
        if let RelOp::Join { condition, .. } = &new.input(1).op {
            assert_eq!(condition.digest(), "($0 = $1)");
        }
        if let RelOp::Join { condition, .. } = &new.op {
            assert_eq!(condition.digest(), "($0 = $1)");
        }
    }

    #[test]
    fn commute_then_execute_equivalence_of_row_count_estimate() {
        // Sanity: metadata row counts agree between original and commuted.
        let mq = MetadataQuery::standard();
        let l = table("l", &["a"], vec![vec![1], vec![2], vec![3]]);
        let r = table("r", &["b"], vec![vec![2], vec![3], vec![4]]);
        let j = rel::join(
            l,
            r,
            JoinKind::Inner,
            RexNode::input(0, int_ty()).eq(RexNode::input(1, int_ty())),
        );
        let new = fire(&JoinCommuteRule, &j).pop().unwrap();
        let rc1 = mq.row_count(&j);
        let rc2 = mq.row_count(&new);
        assert!((rc1 - rc2).abs() < 1e-6);
    }
}
