//! Materialized-view rewriting, approach 1 of paper §6: *view
//! substitution*. "The aim is to substitute part of the relational algebra
//! tree with an equivalent expression which makes use of a materialized
//! view"; rewritings may be *partial*, adding residual filters or rollup
//! aggregations on top of the view scan.

use crate::catalog::TableRef;
use crate::rel::{self, AggCall, AggFunc, Rel, RelOp};
use crate::rex::RexNode;
use crate::rules::{Pattern, Rule, RuleCall};
use std::collections::HashSet;
use std::sync::Arc;

/// A registered materialization: a stored table plus the logical plan that
/// defines its contents.
#[derive(Clone)]
pub struct Materialization {
    pub name: String,
    /// The table holding the materialized rows.
    pub table: TableRef,
    /// The view definition as a logical plan over base tables.
    pub plan: Rel,
    /// The incremental-maintenance handle, when this materialization is a
    /// `CREATE MATERIALIZED VIEW` registered with the commit feed. `None`
    /// (manually registered materializations, lattice tiles) keeps the
    /// legacy always-usable behavior.
    pub maintained: Option<Arc<crate::ivm::MaintainedView>>,
}

impl Materialization {
    pub fn new(name: impl Into<String>, table: TableRef, plan: Rel) -> Materialization {
        Materialization {
            name: name.into(),
            table,
            // A top-level rename projection (identity column references in
            // order) does not change stored positions; stripping it lets
            // the unifier see through SELECT-list aliases.
            plan: strip_rename(&plan),
            maintained: None,
        }
    }

    /// Attaches the freshness/maintenance handle.
    pub fn with_maintained(mut self, view: Arc<crate::ivm::MaintainedView>) -> Materialization {
        self.maintained = Some(view);
        self
    }

    /// Whether substitution may serve reads from this materialization
    /// right now: tracked views must be fresh; untracked ones always are.
    pub fn is_usable(&self) -> bool {
        self.maintained.as_ref().is_none_or(|m| m.is_fresh())
    }
}

/// Removes top-level identity (rename-only) projections.
fn strip_rename(plan: &Rel) -> Rel {
    let mut current = plan.clone();
    loop {
        let RelOp::Project { exprs, .. } = &current.op else {
            return current;
        };
        let input = current.input(0).clone();
        let identity = exprs.len() == input.row_type().arity()
            && exprs
                .iter()
                .enumerate()
                .all(|(i, e)| e.as_input_ref() == Some(i));
        if !identity {
            return current;
        }
        current = input;
    }
}

fn same(a: &Rel, b: &Rel) -> bool {
    a.digest() == b.digest()
}

/// Attempts to rewrite `node` (one subtree, not recursively) to use the
/// materialization. Returns the substituted subtree on success.
pub fn unify(node: &Rel, mat: &Materialization) -> Option<Rel> {
    // Exact match.
    if same(node, &mat.plan) {
        return Some(rel::scan(mat.table.clone()));
    }
    match (&node.op, &mat.plan.op) {
        // Query filter over the view's exact input: compensate with the
        // full filter. (The pure-recursion case; cheap win.)
        (RelOp::Filter { condition }, _) if same(node.input(0), &mat.plan) => {
            Some(rel::filter(rel::scan(mat.table.clone()), condition.clone()))
        }

        // Filter vs filter over the same input: residual-predicate
        // rewriting when the view's conjuncts are a subset of the query's.
        (RelOp::Filter { condition: cq }, RelOp::Filter { condition: cv })
            if same(node.input(0), mat.plan.input(0)) =>
        {
            let q: Vec<RexNode> = cq.conjuncts();
            let v: HashSet<String> = cv.conjuncts().iter().map(|c| c.digest()).collect();
            let all_covered = v.iter().all(|d| q.iter().any(|c| &c.digest() == d));
            if !all_covered {
                return None;
            }
            let residual: Vec<RexNode> =
                q.into_iter().filter(|c| !v.contains(&c.digest())).collect();
            Some(rel::filter(
                rel::scan(mat.table.clone()),
                RexNode::and_all(residual),
            ))
        }

        // Project vs project over the same input: column remapping when
        // every query expression appears in the view output.
        (
            RelOp::Project {
                exprs: eq,
                names: nq,
            },
            RelOp::Project { exprs: ev, .. },
        ) if same(node.input(0), mat.plan.input(0)) => {
            let view_rt = mat.table.table.row_type();
            let mut out = vec![];
            for e in eq {
                let pos = ev.iter().position(|ve| ve.digest() == e.digest())?;
                out.push(RexNode::input(pos, view_rt.field(pos).ty.clone()));
            }
            Some(rel::project(rel::scan(mat.table.clone()), out, nq.clone()))
        }

        // Aggregate rollup: query groups by a subset of the view's keys.
        (
            RelOp::Aggregate {
                group: gq,
                aggs: aq,
            },
            RelOp::Aggregate {
                group: gv,
                aggs: av,
            },
        ) if same(node.input(0), mat.plan.input(0)) => rollup(node, mat, gq, aq, gv, av),
        _ => None,
    }
}

/// Builds the rollup aggregation answering a coarser-grained aggregate
/// from a finer-grained materialized aggregate.
fn rollup(
    node: &Rel,
    mat: &Materialization,
    gq: &[usize],
    aq: &[AggCall],
    gv: &[usize],
    av: &[AggCall],
) -> Option<Rel> {
    // Every query group key must be a view group key.
    let mut group_map = vec![];
    for g in gq {
        let pos = gv.iter().position(|v| v == g)?;
        group_map.push(pos); // position within the view's key columns
    }
    let view_rt = mat.table.table.row_type();

    // Derive each query aggregate from a view measure. View output layout:
    // [group keys..., measures...].
    let mut out_aggs = vec![];
    for a in aq {
        if a.distinct {
            return None; // DISTINCT aggregates do not roll up
        }
        let find_measure = |func: AggFunc, args: &[usize]| {
            av.iter()
                .position(|m| m.func == func && m.args == args && !m.distinct)
                .map(|i| gv.len() + i)
        };
        let (func, col) = match a.func {
            // COUNT rolls up as SUM of the stored counts.
            AggFunc::Count => (AggFunc::Sum, find_measure(AggFunc::Count, &a.args)?),
            AggFunc::Sum => (AggFunc::Sum, find_measure(AggFunc::Sum, &a.args)?),
            AggFunc::Min => (AggFunc::Min, find_measure(AggFunc::Min, &a.args)?),
            AggFunc::Max => (AggFunc::Max, find_measure(AggFunc::Max, &a.args)?),
            AggFunc::Avg => return None, // AVG needs SUM+COUNT pair; not derivable alone
        };
        out_aggs.push(AggCall {
            func,
            args: vec![col],
            distinct: false,
            name: a.name.clone(),
            ty: a.ty.clone(),
        });
    }

    let scan = rel::scan(mat.table.clone());
    if group_map.len() == gv.len() && aq.len() == av.len() {
        // Same grain: a projection suffices (group order may differ).
        let mut exprs = vec![];
        let mut names = vec![];
        let node_rt = node.row_type();
        for (i, pos) in group_map.iter().enumerate() {
            exprs.push(RexNode::input(*pos, view_rt.field(*pos).ty.clone()));
            names.push(node_rt.field(i).name.clone());
        }
        for (i, a) in aq.iter().enumerate() {
            let pos = gv.len()
                + av.iter()
                    .position(|m| m.func == a.func && m.args == a.args)?;
            exprs.push(RexNode::input(pos, view_rt.field(pos).ty.clone()));
            names.push(node_rt.field(group_map.len() + i).name.clone());
        }
        return Some(rel::project(scan, exprs, names));
    }
    Some(rel::aggregate(scan, group_map, out_aggs))
}

/// Recursively rewrites a query, substituting every subtree a
/// materialization can answer. Returns alternatives (the original is not
/// included).
pub fn substitute(query: &Rel, mats: &[Materialization]) -> Vec<Rel> {
    let mut alts = vec![];
    // Whole-node rewrites.
    for m in mats {
        if let Some(rw) = unify(query, m) {
            alts.push(rw);
        }
    }
    // Child rewrites (one child substituted at a time, recursively).
    for (i, child) in query.inputs.iter().enumerate() {
        for alt in substitute(child, mats) {
            let mut inputs = query.inputs.clone();
            inputs[i] = alt;
            alts.push(query.with_inputs(inputs));
        }
    }
    alts
}

/// Planner rule wrapping [`substitute`]: in the Volcano engine the view
/// scan and definition plan land in the same equivalence set and cost
/// picks the winner — exactly the paper's registration scheme.
pub struct MaterializedViewRule {
    mats: Vec<Materialization>,
}

impl MaterializedViewRule {
    pub fn new(mats: Vec<Materialization>) -> MaterializedViewRule {
        MaterializedViewRule { mats }
    }
}

impl Rule for MaterializedViewRule {
    fn name(&self) -> &str {
        "MaterializedViewRule"
    }

    fn pattern(&self) -> Pattern {
        Pattern::any()
    }

    fn on_match(&self, call: &mut RuleCall) {
        let node = call.rel(0).clone();
        if !node.convention.is_none() {
            return;
        }
        for m in &self.mats {
            // A stale maintained view must not serve reads; skipping it
            // here makes substitution fall back to the base-table plan.
            if !m.is_usable() {
                continue;
            }
            if let Some(rw) = unify(&node, m) {
                call.transform_to(rw);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{MemTable, TableRef};
    use crate::rel::RelKind;
    use crate::types::{RelType, RowTypeBuilder, TypeKind};

    fn int_ty() -> RelType {
        RelType::not_null(TypeKind::Integer)
    }

    fn base() -> Rel {
        let t = MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("k", TypeKind::Integer)
                .add_not_null("v", TypeKind::Integer)
                .build(),
            vec![],
        );
        rel::scan(TableRef::new("s", "base", t))
    }

    fn view_table(fields: &[(&str, TypeKind)]) -> TableRef {
        let mut b = RowTypeBuilder::new();
        for (n, k) in fields {
            b = b.add_not_null(*n, k.clone());
        }
        TableRef::new("s", "mv", MemTable::new(b.build(), vec![]))
    }

    #[test]
    fn exact_match_substitution() {
        let q = rel::filter(base(), RexNode::input(0, int_ty()).gt(RexNode::lit_int(5)));
        let mat = Materialization::new(
            "mv",
            view_table(&[("k", TypeKind::Integer), ("v", TypeKind::Integer)]),
            q.clone(),
        );
        let rw = unify(&q, &mat).unwrap();
        assert_eq!(rw.kind(), RelKind::Scan);
    }

    #[test]
    fn residual_filter_substitution() {
        // View: k > 5. Query: k > 5 AND v < 3. Residual: v < 3.
        let view = rel::filter(base(), RexNode::input(0, int_ty()).gt(RexNode::lit_int(5)));
        let query = rel::filter(
            base(),
            RexNode::and_all(vec![
                RexNode::input(0, int_ty()).gt(RexNode::lit_int(5)),
                RexNode::input(1, int_ty()).lt(RexNode::lit_int(3)),
            ]),
        );
        let mat = Materialization::new(
            "mv",
            view_table(&[("k", TypeKind::Integer), ("v", TypeKind::Integer)]),
            view,
        );
        let rw = unify(&query, &mat).unwrap();
        assert_eq!(rw.kind(), RelKind::Filter);
        if let RelOp::Filter { condition } = &rw.op {
            assert_eq!(condition.digest(), "($1 < 3)");
        }
        assert_eq!(rw.input(0).kind(), RelKind::Scan);
    }

    #[test]
    fn view_with_extra_predicates_is_rejected() {
        // View filters more than the query: cannot answer.
        let view = rel::filter(
            base(),
            RexNode::and_all(vec![
                RexNode::input(0, int_ty()).gt(RexNode::lit_int(5)),
                RexNode::input(1, int_ty()).lt(RexNode::lit_int(3)),
            ]),
        );
        let query = rel::filter(base(), RexNode::input(0, int_ty()).gt(RexNode::lit_int(5)));
        let mat = Materialization::new(
            "mv",
            view_table(&[("k", TypeKind::Integer), ("v", TypeKind::Integer)]),
            view,
        );
        assert!(unify(&query, &mat).is_none());
    }

    #[test]
    fn aggregate_rollup_count_becomes_sum() {
        let rt = base().row_type().clone();
        // View: GROUP BY k: COUNT(*), SUM(v).
        let view = rel::aggregate(
            base(),
            vec![0],
            vec![
                AggCall::count_star("c"),
                AggCall::new(AggFunc::Sum, vec![1], false, "s", &rt),
            ],
        );
        // Query: global COUNT(*) + SUM(v).
        let query = rel::aggregate(
            base(),
            vec![],
            vec![
                AggCall::count_star("c"),
                AggCall::new(AggFunc::Sum, vec![1], false, "s", &rt),
            ],
        );
        let mat = Materialization::new(
            "mv",
            view_table(&[
                ("k", TypeKind::Integer),
                ("c", TypeKind::Integer),
                ("s", TypeKind::Integer),
            ]),
            view,
        );
        let rw = unify(&query, &mat).unwrap();
        assert_eq!(rw.kind(), RelKind::Aggregate);
        if let RelOp::Aggregate { group, aggs } = &rw.op {
            assert!(group.is_empty());
            // COUNT rolls up as SUM over the view's count column (index 1).
            assert_eq!(aggs[0].func, AggFunc::Sum);
            assert_eq!(aggs[0].args, vec![1]);
            assert_eq!(aggs[1].func, AggFunc::Sum);
            assert_eq!(aggs[1].args, vec![2]);
        }
    }

    #[test]
    fn same_grain_aggregate_becomes_projection() {
        let rt = base().row_type().clone();
        let view = rel::aggregate(
            base(),
            vec![0],
            vec![AggCall::new(AggFunc::Sum, vec![1], false, "s", &rt)],
        );
        let query = rel::aggregate(
            base(),
            vec![0],
            vec![AggCall::new(AggFunc::Sum, vec![1], false, "total", &rt)],
        );
        let mat = Materialization::new(
            "mv",
            view_table(&[("k", TypeKind::Integer), ("s", TypeKind::Integer)]),
            view,
        );
        let rw = unify(&query, &mat).unwrap();
        assert_eq!(rw.kind(), RelKind::Project);
        assert_eq!(rw.row_type().field_names(), vec!["k", "total"]);
    }

    #[test]
    fn avg_does_not_roll_up() {
        let rt = base().row_type().clone();
        let view = rel::aggregate(
            base(),
            vec![0],
            vec![AggCall::new(AggFunc::Avg, vec![1], false, "a", &rt)],
        );
        let query = rel::aggregate(
            base(),
            vec![],
            vec![AggCall::new(AggFunc::Avg, vec![1], false, "a", &rt)],
        );
        let mat = Materialization::new(
            "mv",
            view_table(&[("k", TypeKind::Integer), ("a", TypeKind::Double)]),
            view,
        );
        assert!(unify(&query, &mat).is_none());
    }

    #[test]
    fn substitute_rewrites_nested_subtree() {
        // Query: Sort over (Filter base); view matches the filter subtree.
        let filt = rel::filter(base(), RexNode::input(0, int_ty()).gt(RexNode::lit_int(5)));
        let query = rel::sort(filt.clone(), vec![crate::traits::FieldCollation::asc(0)]);
        let mat = Materialization::new(
            "mv",
            view_table(&[("k", TypeKind::Integer), ("v", TypeKind::Integer)]),
            filt,
        );
        let alts = substitute(&query, &[mat]);
        assert_eq!(alts.len(), 1);
        assert_eq!(alts[0].kind(), RelKind::Sort);
        assert_eq!(alts[0].input(0).kind(), RelKind::Scan);
    }
}
