//! Join order by dynamic programming (paper §6: choosing the join order
//! is the cost-based engine's central decision).
//!
//! Each maximal region of three or more inner-joined inputs is flattened
//! into its leaves and the conjuncts of its conditions, in the region's
//! own column coordinates. A dynamic program over the connected subsets
//! of the leaves (Moerkotte and Neumann's connected-subgraph enumeration)
//! builds each subset's trees from the joins of two disjoint connected
//! subsets that some conjunct links, both orientations tried, and keeps
//! the cheapest few that no other tree of the subset beats on cost, row
//! estimate and column order together. A split is priced by [`MetadataQuery::non_cumulative_cost`] of the candidate join
//! itself, so the planner has one cost formula. The Volcano planner
//! registers each region's tree beside the written shape: `JoinCommuteRule`
//! and the physical costs still choose between the two, and view matching
//! still sees the written shape.

use crate::metadata::MetadataQuery;
use crate::rel::{self, JoinKind, Rel, RelOp};
use crate::rex::RexNode;

/// Regions with more leaves keep their written order: the program looks
/// at every split of every subset, about 3^n of them for n leaves, and
/// prices each connected one. On a 2-core host a ten-way chain plans in
/// about 5 ms, a star in 12 ms, a clique (every split connected) in
/// 0.65 s.
const MAX_LEAVES: usize = 10;

/// The inner-join regions of `root` of three or more inputs, each paired
/// with the cheapest tree the dynamic program finds for it (of the
/// region's row type, restored by a `Project` where the leaf order
/// moved). Empty for a plan with no such region.
pub fn reorder(root: &Rel, mq: &MetadataQuery) -> Vec<(Rel, Rel)> {
    let mut found = vec![];
    collect(root, false, mq, &mut found);
    found
}

/// `under_project`: `rel`'s parent is a `Project`.
fn collect(rel: &Rel, under_project: bool, mq: &MetadataQuery, found: &mut Vec<(Rel, Rel)>) {
    let Some(region) = Region::new(rel, under_project) else {
        let project = matches!(rel.op, RelOp::Project { .. });
        for input in &rel.inputs {
            collect(input, project, mq, found);
        }
        return;
    };
    for leaf in &region.leaves {
        collect(leaf, false, mq, found);
    }
    if let Some(plan) = region.best(mq) {
        found.push((rel.clone(), plan.tree));
    }
}

/// The plans a subset keeps. A join's row estimate depends on its
/// inputs' trees, not only on their leaves, so the cheapest tree of a
/// subset can make a dearer tree above it; four plans close every such
/// gap on the generated graphs of the tests.
const KEPT: usize = 4;

/// A region with more splits keeps one plan per subset: keeping four can
/// price sixteen times the joins, and a clique of ten has 57 002 splits
/// (a chain of ten 330, a star of eight 896, a clique of six 602).
const DENSE: usize = 1_024;

/// Adds `plan` to a subset's `kept` plans, cheapest first, unless one of
/// them dominates it; drops those it dominates and all past the `most`th.
fn keep(kept: &mut Vec<Plan>, plan: Plan, most: usize) {
    if kept.iter().any(|k| k.dominates(&plan)) {
        return;
    }
    kept.retain(|k| !plan.dominates(k));
    let at = kept.partition_point(|k| k.cost <= plan.cost);
    kept.insert(at, plan);
    kept.truncate(most);
}

/// A set of leaves, one bit per leaf.
type Leaves = usize;

/// A maximal tree of inner joins, flattened.
struct Region {
    written: Rel,
    leaves: Vec<Rel>,
    /// The region column each leaf's first column lands on.
    offsets: Vec<usize>,
    /// Every conjunct of every join in the region, over region columns.
    conjuncts: Vec<RexNode>,
    /// The leaves each conjunct reads; all of them for one that reads
    /// none (a constant, a bare parameter), which the top join keeps.
    reads: Vec<Leaves>,
    /// A `Project` above the region absorbs a restoring one
    /// (`ProjectMergeRule`), so restoring the written order is free.
    restoring_is_free: bool,
}

/// A subset's tree, the region column at each of its output positions,
/// its row estimate and the weighed cost of its joins.
#[derive(Clone)]
struct Plan {
    tree: Rel,
    columns: Vec<usize>,
    rows: f64,
    cost: f64,
}

impl Plan {
    fn leaf(leaf: &Rel, start: usize, mq: &MetadataQuery) -> Plan {
        Plan {
            tree: leaf.clone(),
            columns: (start..start + leaf.row_type().arity()).collect(),
            rows: mq.row_count(leaf),
            cost: 0.0,
        }
    }

    /// No worse than `other` on anything the joins above it are priced
    /// by: its own cost, its row estimate (a join's estimate depends on
    /// its inputs' trees, not only on their leaves), and keeping the
    /// written column order (which spares the region's top a restoring
    /// `Project`).
    fn dominates(&self, other: &Plan) -> bool {
        self.cost <= other.cost
            && self.rows <= other.rows
            && (self.columns.is_sorted() || !other.columns.is_sorted())
    }
}

impl Region {
    /// The region rooted at `rel`, if `rel` is an inner join.
    fn new(rel: &Rel, under_project: bool) -> Option<Region> {
        if !matches!(
            rel.op,
            RelOp::Join {
                kind: JoinKind::Inner,
                ..
            }
        ) {
            return None;
        }
        let mut region = Region {
            written: rel.clone(),
            leaves: vec![],
            offsets: vec![],
            conjuncts: vec![],
            reads: vec![],
            restoring_is_free: under_project,
        };
        region.flatten(rel, 0);
        let all = (1 << region.leaves.len()) - 1;
        region.reads = region
            .conjuncts
            .iter()
            .map(|c| {
                let leaf = |col: &usize| region.offsets.partition_point(|o| o <= col) - 1;
                match c.input_refs().iter().fold(0, |m, col| m | 1 << leaf(col)) {
                    0 => all,
                    m => m,
                }
            })
            .collect();
        Some(region)
    }

    fn flatten(&mut self, rel: &Rel, base: usize) {
        let RelOp::Join {
            kind: JoinKind::Inner,
            condition,
        } = &rel.op
        else {
            self.offsets.push(base);
            self.leaves.push(rel.clone());
            return;
        };
        let left = rel.input(0);
        self.flatten(left, base);
        self.flatten(rel.input(1), base + left.row_type().arity());
        self.conjuncts.extend(
            condition
                .conjuncts()
                .into_iter()
                .map(|c| c.shift(base as isize)),
        );
    }

    /// The dynamic program: every connected subset keeps the cheapest of
    /// its plans that no other plan of it dominates, up to [`KEPT`] of
    /// them (one in a region of more than [`DENSE`] splits), each built
    /// from its two sides' kept plans. `None` for a region of too few or
    /// too many leaves, or one that needs a Cartesian product; otherwise
    /// the cheapest plan of the whole region, its order restored.
    fn best(&self, mq: &MetadataQuery) -> Option<Plan> {
        let n = self.leaves.len();
        if !(3..=MAX_LEAVES).contains(&n) {
            return None;
        }
        let all: Leaves = (1 << n) - 1;
        // Every split of a connected subset into two connected ones that
        // a conjunct links, in ascending masks: every subset before its
        // supersets.
        let mut connected = vec![false; all + 1];
        let mut splits = vec![];
        for i in 0..n {
            connected[1 << i] = true;
        }
        for set in 3..=all {
            let mut left = (set - 1) & set;
            while left > 0 {
                let right = set ^ left;
                if connected[left] && connected[right] {
                    if let Some(on) = self.linking(left, right) {
                        connected[set] = true;
                        splits.push((set, left, on));
                    }
                }
                left = (left - 1) & set;
            }
        }
        let most = if splits.len() <= DENSE { KEPT } else { 1 };
        let mut plans: Vec<Vec<Plan>> = vec![vec![]; all + 1];
        for (i, leaf) in self.leaves.iter().enumerate() {
            plans[1 << i] = vec![Plan::leaf(leaf, self.offsets[i], mq)];
        }
        for (set, left, on) in splits {
            let (below, above) = plans.split_at_mut(set);
            for l in &below[left] {
                for r in &below[set ^ left] {
                    let plan = self.join(l, r, &on, set == all, mq);
                    keep(&mut above[0], plan, most);
                }
            }
        }
        plans.pop()?.into_iter().next()
    }

    /// The conjuncts the join of two disjoint subsets applies, or `None`
    /// when no conjunct links them (a Cartesian product). A conjunct is
    /// applied by the lowest join that holds every leaf it reads; one
    /// reading a single leaf, by the join that first takes that leaf in.
    fn linking(&self, left: Leaves, right: Leaves) -> Option<Vec<usize>> {
        let set = left | right;
        let below = |side: Leaves, m: Leaves| m & !side == 0 && side.count_ones() > 1;
        let on: Vec<usize> = (0..self.reads.len())
            .filter(|c| {
                let m = self.reads[*c];
                m & !set == 0 && !below(left, m) && !below(right, m)
            })
            .collect();
        on.iter()
            .any(|c| self.reads[*c].count_ones() > 1)
            .then_some(on)
    }

    /// `l ⋈ r` on the conjuncts `on`, priced; at the `top` of the region,
    /// with the written column order restored by a `Project` unless the
    /// tree kept it, priced unless a `Project` above absorbs it.
    fn join(&self, l: &Plan, r: &Plan, on: &[usize], top: bool, mq: &MetadataQuery) -> Plan {
        let mut columns: Vec<usize> = l.columns.iter().chain(&r.columns).copied().collect();
        let position = |col: usize| {
            columns
                .iter()
                .position(|c| *c == col)
                .expect("a conjunct reads the leaves it is applied over")
        };
        let condition = RexNode::and_all(
            on.iter()
                .map(|c| self.conjuncts[*c].map_input_refs(&position))
                .collect(),
        );
        let mut tree = rel::join(l.tree.clone(), r.tree.clone(), JoinKind::Inner, condition);
        let mut cost = l.cost + r.cost + mq.cost_model().weigh(&mq.non_cumulative_cost(&tree));
        if top && columns.iter().enumerate().any(|(i, c)| i != *c) {
            let fields = &self.written.row_type().fields;
            let exprs = fields
                .iter()
                .enumerate()
                .map(|(c, f)| RexNode::input(position(c), f.ty.clone()))
                .collect();
            let names = fields.iter().map(|f| f.name.clone()).collect();
            tree = rel::project(tree, exprs, names);
            if !self.restoring_is_free {
                cost += mq.cost_model().weigh(&mq.non_cumulative_cost(&tree));
            }
            columns = (0..columns.len()).collect();
        }
        Plan {
            rows: mq.row_count(&tree),
            tree,
            columns,
            cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, MemTable, Schema};
    use crate::stats::{analyze_table, StatsMdProvider};
    use crate::types::{RelType, RowTypeBuilder, TypeKind};
    use std::collections::HashMap;
    use std::sync::Arc;

    #[derive(Clone, Copy, Debug)]
    enum Shape {
        Chain,
        Star,
        Cycle,
        Clique,
    }

    fn edges(shape: Shape, n: usize) -> Vec<(usize, usize)> {
        match shape {
            Shape::Chain => (1..n).map(|j| (j - 1, j)).collect(),
            Shape::Star => (1..n).map(|j| (0, j)).collect(),
            Shape::Cycle => (1..n).map(|j| (j - 1, j)).chain([(0, n - 1)]).collect(),
            Shape::Clique => (1..n).flat_map(|j| (0..j).map(move |i| (i, j))).collect(),
        }
    }

    /// `t0 … t(n-1)`, each `(a, b)` with sizes and key domains that differ
    /// per table, so orders differ in cost; optionally ANALYZEd.
    fn tables(n: usize, analyzed: bool) -> (Vec<Rel>, MetadataQuery) {
        let catalog = Catalog::new();
        let schema = Schema::new();
        for t in 0..n as i64 {
            let rows = [40, 300, 15, 120, 800, 60][t as usize];
            let data = (0..rows)
                .map(|r| rel::int_row(&[r % (7 + 5 * t), r % (23 - 3 * t)]))
                .collect();
            let row_type = RowTypeBuilder::new()
                .add_not_null("a", TypeKind::Integer)
                .add_not_null("b", TypeKind::Integer)
                .build();
            schema.add_table(format!("t{t}"), MemTable::new(row_type, data));
        }
        catalog.add_schema("s", schema);
        let scans: Vec<Rel> = (0..n)
            .map(|t| rel::scan(catalog.resolve(&["s", &format!("t{t}")]).unwrap()))
            .collect();
        if !analyzed {
            return (scans, MetadataQuery::standard());
        }
        for scan in &scans {
            let RelOp::Scan { table } = &scan.op else {
                unreachable!()
            };
            let stats = analyze_table(table.table.as_ref()).unwrap();
            catalog
                .stats()
                .put(table.qualified_name(), 0, Arc::new(stats));
        }
        let provider = Arc::new(StatsMdProvider::new(catalog, 0));
        (scans, MetadataQuery::with_providers(vec![provider]))
    }

    /// `t0 ⋈ t1 ⋈ …` left-deep in table order, each edge `ti.b = tj.a`
    /// on the first join that holds both tables.
    fn written(scans: &[Rel], edges: &[(usize, usize)]) -> Rel {
        let ty = RelType::not_null(TypeKind::Integer);
        let mut plan = scans[0].clone();
        for (j, scan) in scans.iter().enumerate().skip(1) {
            let on = edges
                .iter()
                .filter(|(_, b)| *b == j)
                .map(|(i, _)| {
                    RexNode::input(2 * i + 1, ty.clone()).eq(RexNode::input(2 * j, ty.clone()))
                })
                .collect();
            plan = rel::join(plan, scan.clone(), JoinKind::Inner, RexNode::and_all(on));
        }
        plan
    }

    /// Every connected bushy tree over `set`, both orientations of every
    /// join, built from the leaves up without the dynamic program's
    /// table. A tree's `cost` field is not read: `priced` prices it.
    fn every_tree(
        region: &Region,
        set: Leaves,
        mq: &MetadataQuery,
        memo: &mut HashMap<Leaves, Vec<Plan>>,
    ) -> Vec<Plan> {
        if let Some(trees) = memo.get(&set) {
            return trees.clone();
        }
        let mut trees = vec![];
        if set.count_ones() == 1 {
            let i = set.trailing_zeros() as usize;
            trees.push(Plan::leaf(&region.leaves[i], region.offsets[i], mq));
        }
        let top = set == (1 << region.leaves.len()) - 1;
        let mut left = (set - 1) & set;
        while left > 0 && set.count_ones() > 1 {
            let right = set ^ left;
            if let Some(on) = region.linking(left, right) {
                for l in every_tree(region, left, mq, memo) {
                    for r in every_tree(region, right, mq, memo) {
                        trees.push(region.join(&l, &r, &on, top, mq));
                    }
                }
            }
            left = (left - 1) & set;
        }
        memo.insert(set, trees.clone());
        trees
    }

    /// The weighed cost of `tree`'s nodes above the region's leaves.
    fn priced(tree: &Rel, leaves: &[Rel], mq: &MetadataQuery) -> f64 {
        if leaves.iter().any(|l| Arc::ptr_eq(l, tree)) {
            return 0.0;
        }
        let own = mq.cost_model().weigh(&mq.non_cumulative_cost(tree));
        own + tree
            .inputs
            .iter()
            .map(|i| priced(i, leaves, mq))
            .sum::<f64>()
    }

    #[test]
    fn only_inner_regions_of_three_or_more_inputs_are_reordered() {
        let (scans, mq) = tables(4, false);
        let chain = |n: usize| written(&scans[..n], &edges(Shape::Chain, n));
        assert!(reorder(&scans[0], &mq).is_empty());
        assert!(reorder(&chain(2), &mq).is_empty());
        // An outer join bounds a region: the three inner-joined inputs
        // under it are one, the outer join's other input is not in it.
        let region = chain(3);
        let ty = RelType::not_null(TypeKind::Integer);
        let on = RexNode::input(5, ty.clone()).eq(RexNode::input(6, ty));
        let outer = rel::join(region.clone(), scans[3].clone(), JoinKind::Left, on);
        let found = reorder(&outer, &mq);
        assert_eq!(found.len(), 1);
        assert!(Arc::ptr_eq(&found[0].0, &region));
        assert_eq!(found[0].1.row_type(), region.row_type());
    }

    #[test]
    fn a_region_that_needs_a_cartesian_product_keeps_its_shape() {
        let (scans, mq) = tables(3, false);
        // t2 joins on TRUE: no conjunct links it to the others.
        let linked = written(&scans[..2], &edges(Shape::Chain, 2));
        let region = rel::join(
            linked,
            scans[2].clone(),
            JoinKind::Inner,
            RexNode::true_lit(),
        );
        assert!(reorder(&region, &mq).is_empty());
    }

    #[test]
    fn dynamic_program_is_the_brute_force_minimum_on_generated_graphs() {
        for shape in [Shape::Chain, Shape::Star, Shape::Cycle, Shape::Clique] {
            for n in 3..=6 {
                for analyzed in [false, true] {
                    let what = format!("{shape:?} of {n}, analyzed: {analyzed}");
                    let (scans, mq) = tables(n, analyzed);
                    let root = written(&scans, &edges(shape, n));
                    let region = Region::new(&root, false).unwrap();
                    let dp = region.best(&mq).unwrap();
                    let all = (1 << n) - 1;
                    let brute = every_tree(&region, all, &mq, &mut HashMap::new())
                        .iter()
                        .map(|t| priced(&t.tree, &scans, &mq))
                        .fold(f64::INFINITY, f64::min);
                    // Keeping only the cheapest plan per subset misses the
                    // minimum by up to 38 % here (a chain of four).
                    assert!(
                        dp.cost <= brute * (1.0 + 1e-9),
                        "{what}: {} > {brute}",
                        dp.cost
                    );
                    // The price is the tree's own cost, and the tree is the
                    // written region's drop-in replacement.
                    let own = priced(&dp.tree, &scans, &mq);
                    assert!(
                        (own - dp.cost).abs() <= 1e-9 * own,
                        "{what}: {own} vs {}",
                        dp.cost
                    );
                    assert_eq!(dp.tree.row_type(), root.row_type(), "{what}");
                }
            }
        }
    }
}
