//! Planner engines (paper §6). "The main goal of a planner engine is to
//! trigger the rules provided to the engine until it reaches a given
//! objective. ... Calcite provides two different engines": a cost-based
//! dynamic-programming engine ([`volcano::VolcanoPlanner`]) and an
//! exhaustive rule-application engine ([`hep::HepPlanner`]). "New engines
//! are pluggable in the framework" — both implement [`PlannerEngine`], and
//! multi-stage programs compose them ([`Program`]).
//!
//! A connection plans in three stages. Hep normalizes the logical plan
//! with the rewrite rules that always pay (filter push-down, project
//! merging, constant folding). The join-order dynamic program
//! ([`join_order`]) then picks each inner-join region's order and seeds
//! the Volcano memo with it beside the written tree. Volcano finally
//! explores the rest by rules — join orientation, index access paths,
//! adapter push-down, view substitution — and extracts the cheapest
//! physical plan.

pub mod hep;
pub mod join_order;
pub mod volcano;

use crate::error::Result;
use crate::metadata::MetadataQuery;
use crate::rel::Rel;
use crate::traits::Convention;

/// A pluggable planner engine.
pub trait PlannerEngine: Send + Sync {
    /// Optimizes `root`, producing a plan in `required` convention (the
    /// heuristic engine ignores the convention and rewrites in place).
    fn optimize(&self, root: &Rel, required: &Convention, mq: &MetadataQuery) -> Result<Rel>;

    fn name(&self) -> &str;
}

/// A multi-stage optimization program: "users may choose to generate
/// multi-stage optimization logic, in which different sets of rules are
/// applied in consecutive phases" (§6). Each phase is an engine; phases
/// run in order, feeding each other.
pub struct Program {
    phases: Vec<(String, Box<dyn PlannerEngine>)>,
}

impl Program {
    pub fn new() -> Program {
        Program { phases: vec![] }
    }

    pub fn add_phase(mut self, name: impl Into<String>, engine: Box<dyn PlannerEngine>) -> Program {
        self.phases.push((name.into(), engine));
        self
    }

    pub fn phase_names(&self) -> Vec<&str> {
        self.phases.iter().map(|(n, _)| n.as_str()).collect()
    }

    pub fn run(&self, root: &Rel, required: &Convention, mq: &MetadataQuery) -> Result<Rel> {
        let mut current = root.clone();
        for (_, engine) in &self.phases {
            current = engine.optimize(&current, required, mq)?;
        }
        Ok(current)
    }
}

impl Default for Program {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{MemTable, TableRef};
    use crate::planner::hep::HepPlanner;
    use crate::planner::volcano::{UniversalImplementRule, VolcanoPlanner};
    use crate::rel::{self, RelKind};
    use crate::rex::RexNode;
    use crate::rules::default_logical_rules;
    use crate::types::{RelType, RowTypeBuilder, TypeKind};
    use std::sync::Arc;

    fn plan() -> Rel {
        let t = MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("a", TypeKind::Integer)
                .build(),
            vec![],
        );
        let scan = rel::scan(TableRef::new("s", "t", t));
        let f1 = rel::filter(
            scan,
            RexNode::input(0, RelType::not_null(TypeKind::Integer)).gt(RexNode::lit_int(1)),
        );
        rel::filter(
            f1,
            RexNode::input(0, RelType::not_null(TypeKind::Integer)).lt(RexNode::lit_int(9)),
        )
    }

    #[test]
    fn multi_stage_program_runs_phases_in_order() {
        // Phase 1 (heuristic): merge the two filters. Phase 2 (cost-based):
        // physicalize into the enumerable convention — the paper's
        // "multi-stage optimization logic".
        let mut volcano = VolcanoPlanner::new(vec![]);
        volcano.add_rule(Arc::new(UniversalImplementRule::new(
            Convention::enumerable(),
        )));
        let program = Program::new()
            .add_phase(
                "normalize",
                Box::new(HepPlanner::new(default_logical_rules())),
            )
            .add_phase("physical", Box::new(volcano));
        assert_eq!(program.phase_names(), vec!["normalize", "physical"]);

        let mq = MetadataQuery::standard();
        let out = program
            .run(&plan(), &Convention::enumerable(), &mq)
            .unwrap();
        assert!(out.convention.is_enumerable());
        // The two filters were merged before physicalization.
        assert_eq!(out.kind(), RelKind::Filter);
        assert_eq!(out.input(0).kind(), RelKind::Scan);
    }

    #[test]
    fn empty_program_is_identity() {
        let mq = MetadataQuery::standard();
        let p = plan();
        let out = Program::new().run(&p, &Convention::none(), &mq).unwrap();
        assert_eq!(out.digest(), p.digest());
    }
}
