//! # rcalcite-enumerable
//!
//! The built-in *enumerable* calling convention (paper §5) — operators
//! that "simply operate over tuples via an iterator interface" — plus the
//! LINQ4J-style language-integrated query layer (§7.4).
//!
//! A `Connection` wires [`implement_rule`] and [`EnumerableExecutor`],
//! the batch engine, itself. [`register_executors`] is the door to the
//! row engine, the oracle tests and benches check the batch engine
//! against:
//!
//! ```
//! # use rcalcite_core::exec::ExecContext;
//! # use rcalcite_core::planner::volcano::VolcanoPlanner;
//! let mut planner = VolcanoPlanner::new(rcalcite_core::rules::default_logical_rules());
//! planner.add_rule(rcalcite_enumerable::implement_rule());
//! let mut oracle = ExecContext::new();
//! rcalcite_enumerable::register_executors(&mut oracle);
//! ```

mod aggregate;
pub mod batch;
pub mod executor;
mod join;
mod keys;
pub mod linq4j;

pub use batch::{execute_batches, explain_parallel, explain_spill};
pub use executor::{compare_datums, compare_rows, EnumerableExecutor};
pub use linq4j::Enumerable;
pub use rcalcite_core::exec::BATCH_SIZE;

use executor::RowOracle;
use rcalcite_core::exec::ExecContext;
use rcalcite_core::planner::volcano::UniversalImplementRule;
use rcalcite_core::rules::Rule;
use rcalcite_core::traits::Convention;
use std::sync::Arc;

/// The implementation rule that physicalizes any logical operator into the
/// enumerable convention.
pub fn implement_rule() -> Arc<dyn Rule> {
    Arc::new(UniversalImplementRule::new(Convention::enumerable()))
}

/// Registers the row engine, the batch engine's oracle, for the
/// enumerable and the logical convention in an execution context.
pub fn register_executors(ctx: &mut ExecContext) {
    ctx.register(Arc::new(RowOracle(Convention::enumerable())));
    ctx.register(Arc::new(RowOracle(Convention::none())));
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcalcite_core::catalog::{MemTable, TableRef};
    use rcalcite_core::datum::Datum;
    use rcalcite_core::metadata::MetadataQuery;
    use rcalcite_core::planner::volcano::VolcanoPlanner;
    use rcalcite_core::planner::PlannerEngine;
    use rcalcite_core::rel;
    use rcalcite_core::rex::RexNode;
    use rcalcite_core::rules::default_logical_rules;
    use rcalcite_core::types::{RelType, RowTypeBuilder, TypeKind};

    #[test]
    fn plan_and_execute_end_to_end() {
        let t = MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("a", TypeKind::Integer)
                .build(),
            (0..10).map(|i| vec![Datum::Int(i)]).collect(),
        );
        let scan = rel::scan(TableRef::new("s", "t", t));
        let plan = rel::filter(
            scan,
            RexNode::input(0, RelType::not_null(TypeKind::Integer)).ge(RexNode::lit_int(7)),
        );

        let mut planner = VolcanoPlanner::new(default_logical_rules());
        planner.add_rule(implement_rule());
        let mut ctx = ExecContext::new();
        register_executors(&mut ctx);

        let mq = MetadataQuery::standard();
        let physical = planner
            .optimize(&plan, &Convention::enumerable(), &mq)
            .unwrap();
        assert!(physical.convention.is_enumerable());
        let rows = ctx.execute_collect(&physical).unwrap();
        assert_eq!(rows.len(), 3);

        // Differential check: the unoptimized logical plan interpreted
        // directly gives identical results.
        let direct = ctx.execute_collect(&plan).unwrap();
        assert_eq!(rows, direct);
    }
}
