//! The exhaustive (heuristic) planner engine: "triggers rules exhaustively
//! until it generates an expression that is no longer modified by any
//! rules. This planner is useful to quickly execute rules without taking
//! into account the cost of each expression" (§6).

use crate::error::Result;
use crate::metadata::MetadataQuery;
use crate::planner::PlannerEngine;
use crate::rel::Rel;
use crate::rules::{Rule, RuleCall, RuleSet};
use crate::traits::Convention;
use std::sync::Arc;

pub struct HepPlanner {
    rules: RuleSet,
    /// Safety valve against non-confluent rule sets.
    match_limit: usize,
}

impl HepPlanner {
    pub fn new(rules: Vec<Arc<dyn Rule>>) -> HepPlanner {
        HepPlanner {
            rules: RuleSet::new(rules),
            match_limit: 10_000,
        }
    }

    pub fn with_match_limit(mut self, limit: usize) -> HepPlanner {
        self.match_limit = limit;
        self
    }

    /// Applies the rule set to fixpoint and returns the rewritten plan and
    /// the number of rule firings.
    pub fn optimize_counted(&self, root: &Rel, mq: &MetadataQuery) -> (Rel, usize) {
        let mut current = root.clone();
        let mut fired = 0usize;
        loop {
            let before = fired;
            current = self.pass(&current, mq, &mut fired);
            if fired == before || fired >= self.match_limit {
                return (current, fired);
            }
        }
    }

    /// One full traversal, children before parents (pushdown-style rule
    /// sets converge fastest bottom-up), applying the first matching rule
    /// at each node.
    fn pass(&self, rel: &Rel, mq: &MetadataQuery, fired: &mut usize) -> Rel {
        if *fired >= self.match_limit {
            return rel.clone();
        }
        let new = self.rewrite_children(rel, mq, fired);
        self.apply_at(&new, mq, fired)
    }

    fn rewrite_children(&self, rel: &Rel, mq: &MetadataQuery, fired: &mut usize) -> Rel {
        if rel.inputs.is_empty() {
            return rel.clone();
        }
        let new_inputs: Vec<Rel> = rel.inputs.iter().map(|i| self.pass(i, mq, fired)).collect();
        let changed = new_inputs
            .iter()
            .zip(rel.inputs.iter())
            .any(|(a, b)| !Arc::ptr_eq(a, b));
        if changed {
            rel.with_inputs(new_inputs)
        } else {
            rel.clone()
        }
    }

    /// Applies rules at a single node until none fires.
    fn apply_at(&self, rel: &Rel, mq: &MetadataQuery, fired: &mut usize) -> Rel {
        let mut current = rel.clone();
        'outer: loop {
            if *fired >= self.match_limit {
                return current;
            }
            for &i in self.rules.for_kind(current.kind()) {
                if let Some(binds) = self.rules.pattern(i).match_tree(&current) {
                    let mut call = RuleCall::new(binds, mq);
                    self.rules.rule(i).on_match(&mut call);
                    if let Some(new) = call.into_results().into_iter().next() {
                        if Arc::ptr_eq(&new, &current) || new.digest() == current.digest() {
                            continue;
                        }
                        *fired += 1;
                        current = new;
                        continue 'outer;
                    }
                }
            }
            return current;
        }
    }
}

impl PlannerEngine for HepPlanner {
    fn optimize(&self, root: &Rel, _required: &Convention, mq: &MetadataQuery) -> Result<Rel> {
        Ok(self.optimize_counted(root, mq).0)
    }

    fn name(&self) -> &str {
        "hep"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{MemTable, TableRef};
    use crate::rel::{self, JoinKind, RelKind};
    use crate::rex::RexNode;
    use crate::rules::default_logical_rules;
    use crate::types::{RelType, RowTypeBuilder, TypeKind};

    fn int_ty() -> RelType {
        RelType::not_null(TypeKind::Integer)
    }

    fn table(name: &str, cols: &[&str]) -> Rel {
        let mut b = RowTypeBuilder::new();
        for c in cols {
            b = b.add_not_null(*c, TypeKind::Integer);
        }
        rel::scan(TableRef::new("s", name, MemTable::new(b.build(), vec![])))
    }

    #[test]
    fn figure4_filter_pushed_below_join_to_fixpoint() {
        // Filter(Join(sales, products)) on a sales-only column must end as
        // Join(Filter(sales), products) — Figure 4's before/after.
        let sales = table("sales", &["productid", "discount"]);
        let products = table("products", &["productid", "name"]);
        let join = rel::join(
            sales,
            products,
            JoinKind::Inner,
            RexNode::input(0, int_ty()).eq(RexNode::input(2, int_ty())),
        );
        let root = rel::filter(join, RexNode::input(1, int_ty()).gt(RexNode::lit_int(0)));

        let planner = HepPlanner::new(default_logical_rules());
        let mq = MetadataQuery::standard();
        let (optimized, fired) = planner.optimize_counted(&root, &mq);
        assert!(fired >= 1);
        assert_eq!(optimized.kind(), RelKind::Join);
        assert_eq!(optimized.input(0).kind(), RelKind::Filter);
        assert_eq!(optimized.input(0).input(0).kind(), RelKind::Scan);
        assert_eq!(optimized.input(1).kind(), RelKind::Scan);
    }

    #[test]
    fn cascaded_rules_reach_fixpoint() {
        // Filter(Project(Filter(scan))) with constant-foldable pieces.
        let t = table("t", &["a", "b"]);
        let f1 = rel::filter(
            t,
            RexNode::and_all(vec![
                RexNode::input(0, int_ty()).gt(RexNode::lit_int(1)),
                RexNode::true_lit(),
            ]),
        );
        let p = rel::project(
            f1,
            vec![RexNode::input(0, int_ty()), RexNode::input(1, int_ty())],
            vec!["a".into(), "b".into()],
        );
        let f2 = rel::filter(p, RexNode::input(1, int_ty()).lt(RexNode::lit_int(9)));
        let planner = HepPlanner::new(default_logical_rules());
        let mq = MetadataQuery::standard();
        let (optimized, _) = planner.optimize_counted(&f2, &mq);
        // Identity project removed, filters merged into one above the scan.
        assert_eq!(optimized.kind(), RelKind::Filter);
        assert_eq!(optimized.input(0).kind(), RelKind::Scan);
        if let rel::RelOp::Filter { condition } = &optimized.op {
            assert_eq!(condition.conjuncts().len(), 2);
        }
    }

    #[test]
    fn false_filter_prunes_whole_join() {
        let t1 = table("a", &["x"]);
        let t2 = table("b", &["y"]);
        let join = rel::join(t1, t2, JoinKind::Inner, RexNode::true_lit());
        let root = rel::filter(join, RexNode::false_lit());
        let planner = HepPlanner::new(default_logical_rules());
        let mq = MetadataQuery::standard();
        let (optimized, _) = planner.optimize_counted(&root, &mq);
        match &optimized.op {
            rel::RelOp::Values { tuples, .. } => assert!(tuples.is_empty()),
            other => panic!("expected empty Values, got {other:?}"),
        }
    }

    #[test]
    fn match_limit_bounds_runaway_rule_sets() {
        // A rule that always rewrites to a fresh (growing) filter would
        // loop; the limit must stop it.
        struct Grower;
        impl Rule for Grower {
            fn name(&self) -> &str {
                "Grower"
            }
            fn pattern(&self) -> crate::rules::Pattern {
                crate::rules::Pattern::of(RelKind::Filter)
            }
            fn on_match(&self, call: &mut RuleCall) {
                let f = call.rel(0);
                if let rel::RelOp::Filter { condition } = &f.op {
                    let bigger = RexNode::and_all(vec![
                        condition.clone(),
                        RexNode::input(0, RelType::not_null(TypeKind::Integer))
                            .gt(RexNode::lit_int(condition.digest().len() as i64)),
                    ]);
                    call.transform_to(rel::filter(f.input(0).clone(), bigger));
                }
            }
        }
        let t = table("t", &["a"]);
        let root = rel::filter(t, RexNode::input(0, int_ty()).gt(RexNode::lit_int(0)));
        let planner = HepPlanner::new(vec![Arc::new(Grower)]).with_match_limit(25);
        let mq = MetadataQuery::standard();
        let (_, fired) = planner.optimize_counted(&root, &mq);
        assert!(fired <= 26, "fired = {fired}");
    }

    #[test]
    fn engine_trait_object() {
        let planner: Box<dyn PlannerEngine> = Box::new(HepPlanner::new(default_logical_rules()));
        let t = table("t", &["a"]);
        let out = planner
            .optimize(&t, &Convention::none(), &MetadataQuery::standard())
            .unwrap();
        assert_eq!(out.digest(), t.digest());
        assert_eq!(planner.name(), "hep");
    }
}
