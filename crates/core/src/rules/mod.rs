//! Planner rules (paper §6): "a rule matches a given pattern in the tree
//! and executes a transformation that preserves semantics of that
//! expression". Rules are pluggable — adapters and host systems register
//! their own alongside the built-ins.

mod agg_rules;
mod filter_rules;
mod index_rules;
mod join_rules;
mod project_rules;
mod prune_rules;
mod sort_rules;

pub use agg_rules::{AggregateProjectMergeRule, AggregateRemoveRule};
pub use filter_rules::{
    FilterAggregateTransposeRule, FilterIntoJoinRule, FilterMergeRule, FilterProjectTransposeRule,
    FilterSortTransposeRule, FilterUnionTransposeRule,
};
pub use index_rules::{FilterToIndexSeekRule, JoinToIndexLoopRule, ProjectToIndexOnlyRule};
pub use join_rules::JoinCommuteRule;
pub use project_rules::{ProjectMergeRule, ProjectRemoveRule};
pub use prune_rules::{
    JoinReduceExpressionsRule, ProjectReduceExpressionsRule, PruneEmptyRule, ReduceExpressionsRule,
};
pub use sort_rules::{SortMergeRule, SortProjectTransposeRule, SortRemoveRule};

use crate::metadata::MetadataQuery;
use crate::rel::{Rel, RelKind};
use crate::traits::Convention;
use std::sync::Arc;

/// Matches one node of a pattern.
#[derive(Debug, Clone)]
pub enum NodeMatcher {
    /// Any operator.
    Any,
    /// A specific operator kind in any convention.
    Kind(RelKind),
    /// A specific operator kind in a specific convention.
    KindConv(RelKind, Convention),
}

impl NodeMatcher {
    /// Whether an operator of `kind` in `convention` satisfies this
    /// matcher — the one node test both engines use (Hep on concrete
    /// trees, Volcano on memo expressions).
    pub fn admits(&self, kind: RelKind, convention: &Convention) -> bool {
        match self {
            NodeMatcher::Any => true,
            NodeMatcher::Kind(k) => kind == *k,
            NodeMatcher::KindConv(k, c) => kind == *k && convention == c,
        }
    }
}

/// Child requirements of a pattern node.
#[derive(Debug, Clone)]
pub enum Children {
    /// Children are unconstrained and unbound.
    Any,
    /// Exactly these child patterns, in order.
    Are(Vec<Pattern>),
}

/// A tree pattern over relational operators.
#[derive(Debug, Clone)]
pub struct Pattern {
    pub matcher: NodeMatcher,
    pub children: Children,
}

impl Pattern {
    /// A node of `kind` with unconstrained children.
    pub fn of(kind: RelKind) -> Pattern {
        Pattern {
            matcher: NodeMatcher::Kind(kind),
            children: Children::Any,
        }
    }

    /// A node of `kind` whose children match `children` in order.
    pub fn with_children(kind: RelKind, children: Vec<Pattern>) -> Pattern {
        Pattern {
            matcher: NodeMatcher::Kind(kind),
            children: Children::Are(children),
        }
    }

    /// A node of `kind` in `convention`.
    pub fn of_conv(kind: RelKind, convention: Convention) -> Pattern {
        Pattern {
            matcher: NodeMatcher::KindConv(kind, convention),
            children: Children::Any,
        }
    }

    pub fn any() -> Pattern {
        Pattern {
            matcher: NodeMatcher::Any,
            children: Children::Any,
        }
    }

    /// Matches the pattern against a concrete tree, returning the bound
    /// nodes in pre-order (root first), or `None`.
    pub fn match_tree(&self, rel: &Rel) -> Option<Vec<Rel>> {
        let mut binds = vec![];
        if self.collect(rel, &mut binds) {
            Some(binds)
        } else {
            None
        }
    }

    fn collect(&self, rel: &Rel, binds: &mut Vec<Rel>) -> bool {
        if !self.matcher.admits(rel.kind(), &rel.convention) {
            return false;
        }
        binds.push(rel.clone());
        match &self.children {
            Children::Any => true,
            Children::Are(pats) => {
                if pats.len() != rel.inputs.len() {
                    return false;
                }
                for (p, c) in pats.iter().zip(rel.inputs.iter()) {
                    if !p.collect(c, binds) {
                        return false;
                    }
                }
                true
            }
        }
    }

    /// Depth of the pattern (1 for a single node).
    pub fn depth(&self) -> usize {
        match &self.children {
            Children::Any => 1,
            Children::Are(pats) => 1 + pats.iter().map(|p| p.depth()).max().unwrap_or(0),
        }
    }
}

/// The context handed to a firing rule: the matched nodes (pre-order) and
/// a place to register transformed expressions.
pub struct RuleCall<'a> {
    rels: Vec<Rel>,
    pub mq: &'a MetadataQuery,
    results: Vec<Rel>,
}

impl<'a> RuleCall<'a> {
    pub fn new(rels: Vec<Rel>, mq: &'a MetadataQuery) -> RuleCall<'a> {
        RuleCall {
            rels,
            mq,
            results: vec![],
        }
    }

    /// The `i`th bound node (0 is the pattern root).
    pub fn rel(&self, i: usize) -> &Rel {
        &self.rels[i]
    }

    /// Every matched node, in pre-order (root first).
    pub fn rels(&self) -> &[Rel] {
        &self.rels
    }

    /// Registers an equivalent expression for the pattern root.
    pub fn transform_to(&mut self, rel: Rel) {
        self.results.push(rel);
    }

    pub fn into_results(self) -> Vec<Rel> {
        self.results
    }
}

/// A planner rule.
pub trait Rule: Send + Sync {
    fn name(&self) -> &str;

    fn pattern(&self) -> Pattern;

    /// Fired when the pattern matches; registers alternatives through
    /// [`RuleCall::transform_to`].
    fn on_match(&self, call: &mut RuleCall);
}

/// A rule battery as the planner engines hold it: each rule's pattern is
/// taken once, at registration, and the rules are indexed by the operator
/// kind their pattern root admits, so an engine only tries the rules that
/// can match the node in hand.
pub struct RuleSet {
    rules: Vec<(Arc<dyn Rule>, Pattern)>,
    /// `RelKind as usize` → indexes into `rules`, in registration order.
    by_kind: Vec<Vec<usize>>,
    max_depth: usize,
}

impl RuleSet {
    pub fn new(rules: Vec<Arc<dyn Rule>>) -> RuleSet {
        let mut set = RuleSet {
            rules: vec![],
            by_kind: vec![vec![]; RelKind::ALL.len()],
            max_depth: 0,
        };
        for rule in rules {
            set.push(rule);
        }
        set
    }

    pub fn push(&mut self, rule: Arc<dyn Rule>) {
        let pattern = rule.pattern();
        let index = self.rules.len();
        for kind in RelKind::ALL {
            let admits = match &pattern.matcher {
                NodeMatcher::Any => true,
                NodeMatcher::Kind(k) | NodeMatcher::KindConv(k, _) => *k == kind,
            };
            if admits {
                self.by_kind[kind as usize].push(index);
            }
        }
        self.max_depth = self.max_depth.max(pattern.depth());
        self.rules.push((rule, pattern));
    }

    /// Indexes of the rules whose pattern root can match an operator of
    /// `kind`, in registration order.
    pub fn for_kind(&self, kind: RelKind) -> &[usize] {
        &self.by_kind[kind as usize]
    }

    pub fn rule(&self, index: usize) -> &dyn Rule {
        self.rules[index].0.as_ref()
    }

    pub fn pattern(&self, index: usize) -> &Pattern {
        &self.rules[index].1
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.rules.len()
    }

    /// Depth of the deepest pattern in the set (0 when empty).
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }
}

/// The built-in logical rule battery: safe to run to fixpoint in the
/// heuristic planner (no exploration rules like join commute, which would
/// loop).
pub fn default_logical_rules() -> Vec<Arc<dyn Rule>> {
    vec![
        Arc::new(ReduceExpressionsRule),
        Arc::new(ProjectReduceExpressionsRule),
        Arc::new(JoinReduceExpressionsRule),
        Arc::new(FilterMergeRule),
        Arc::new(FilterIntoJoinRule),
        Arc::new(FilterProjectTransposeRule),
        Arc::new(FilterAggregateTransposeRule),
        Arc::new(FilterUnionTransposeRule),
        Arc::new(FilterSortTransposeRule),
        Arc::new(ProjectMergeRule),
        Arc::new(ProjectRemoveRule),
        Arc::new(AggregateProjectMergeRule),
        Arc::new(AggregateRemoveRule),
        Arc::new(SortRemoveRule),
        Arc::new(SortMergeRule),
        Arc::new(SortProjectTransposeRule),
        Arc::new(PruneEmptyRule),
    ]
}

/// Index access-path rules. Cost-based alternatives only — they register
/// a seek *next to* the scan and let the Volcano extractor pick, so they
/// must never run in the heuristic (forced-rewrite) phase.
pub fn index_access_rules() -> Vec<Arc<dyn Rule>> {
    vec![
        Arc::new(FilterToIndexSeekRule),
        Arc::new(ProjectToIndexOnlyRule),
        Arc::new(JoinToIndexLoopRule),
    ]
}

#[cfg(test)]
pub(crate) use join_rules::JoinAssociateRule;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{MemTable, TableRef};
    use crate::rel::{self, JoinKind};
    use crate::rex::RexNode;
    use crate::types::{RelType, RowTypeBuilder, TypeKind};

    fn scan() -> Rel {
        let t = MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("a", TypeKind::Integer)
                .build(),
            vec![],
        );
        rel::scan(TableRef::new("s", "t", t))
    }

    #[test]
    fn single_node_pattern() {
        let p = Pattern::of(RelKind::Scan);
        let s = scan();
        let binds = p.match_tree(&s).unwrap();
        assert_eq!(binds.len(), 1);
        assert!(p
            .match_tree(&rel::filter(
                s,
                RexNode::input(0, RelType::not_null(TypeKind::Integer)).gt(RexNode::lit_int(1))
            ))
            .is_none());
    }

    #[test]
    fn two_level_pattern_binds_preorder() {
        let p = Pattern::with_children(RelKind::Filter, vec![Pattern::of(RelKind::Join)]);
        let j = rel::join(scan(), scan(), JoinKind::Inner, RexNode::true_lit());
        let f = rel::filter(
            j.clone(),
            RexNode::input(0, RelType::not_null(TypeKind::Integer)).gt(RexNode::lit_int(1)),
        );
        let binds = p.match_tree(&f).unwrap();
        assert_eq!(binds.len(), 2);
        assert_eq!(binds[0].kind(), RelKind::Filter);
        assert_eq!(binds[1].kind(), RelKind::Join);
        // Filter over scan does not match.
        let f2 = rel::filter(
            scan(),
            RexNode::input(0, RelType::not_null(TypeKind::Integer)).gt(RexNode::lit_int(1)),
        );
        assert!(p.match_tree(&f2).is_none());
    }

    #[test]
    fn convention_pattern() {
        let p = Pattern::of_conv(RelKind::Scan, Convention::none());
        assert!(p.match_tree(&scan()).is_some());
        let phys = scan().with_convention(Convention::enumerable());
        assert!(p.match_tree(&phys).is_none());
    }

    #[test]
    fn pattern_depth() {
        assert_eq!(Pattern::of(RelKind::Scan).depth(), 1);
        let p = Pattern::with_children(
            RelKind::Filter,
            vec![Pattern::with_children(
                RelKind::Join,
                vec![Pattern::any(), Pattern::any()],
            )],
        );
        assert_eq!(p.depth(), 3);
    }

    #[test]
    fn default_rule_set_is_nonempty_and_named() {
        let rules = default_logical_rules();
        assert!(rules.len() >= 12);
        let mut names: Vec<&str> = rules.iter().map(|r| r.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), rules.len(), "rule names must be unique");
    }
}
