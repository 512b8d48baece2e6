//! The cost-based planner engine (paper §6): a dynamic-programming
//! optimizer in the style of Volcano. Expressions are registered in a memo
//! of equivalence sets with digests; firing a rule on `e1` producing `e2`
//! adds `e2` to `e1`'s set, and a digest collision between sets merges
//! them. The search runs either exhaustively or until the plan cost stops
//! improving by more than a threshold δ (both modes per the paper).
//!
//! Planning cost follows the memo, not the printed size of its trees. A
//! memo expression is identified by ids — interned operator payload,
//! interned convention, child sets — and a rule firing by the rule's index
//! and the ids of the expressions it binds. The search is a worklist of
//! *arrivals*: a new expression is matched as a pattern root against the
//! rules of its kind and as a child only in bindings of its parents that
//! contain it; a set merge is an arrival of each side's expressions at the
//! other side's parents. Every (rule, binding) is tried once.
//!
//! Calling conventions are first-class: converter edges let the cheapest
//! plan cross engines, paying a transfer cost at each `Convert` node.
//!
//! Join order is not searched by rules: before the search,
//! [`join_order::reorder`] registers the dynamic program's tree for each
//! inner-join region into that region's set, beside the written tree.

use crate::cost::Cost;
use crate::error::{CalciteError, Result};
use crate::metadata::MetadataQuery;
use crate::planner::{join_order, PlannerEngine};
use crate::rel::{Rel, RelNode, RelOp};
use crate::rules::{Children, Pattern, Rule, RuleCall, RuleSet};
use crate::traits::Convention;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

type GroupId = usize;
type ExprId = usize;
/// Position in the memo's interned convention table.
type ConvId = usize;
/// An expression and an input position. In a set's `parents`: a parent
/// and the input the set fills. In a pin: a child and the input of the
/// expression above that it is pinned to.
type Slot = (ExprId, usize);

/// Arrival tick of an expression whose arrival is still queued.
const NOT_ARRIVED: u32 = u32::MAX;
/// The logical convention's slot in every memo's convention table.
const LOGICAL: ConvId = 0;

/// A registered converter: the planner may translate rows of convention
/// `from` into convention `to` (e.g. every adapter convention converts to
/// `enumerable`; the Splunk adapter additionally registers
/// `jdbc → splunk` to model its ODBC lookup capability, enabling the
/// Figure 2 plan).
#[derive(Debug, Clone)]
pub struct ConverterDef {
    pub from: Convention,
    pub to: Convention,
}

/// Termination mode (§6): exhaustive search, or stop once cost improves by
/// less than `delta` (relative) for `patience` consecutive checkpoints.
#[derive(Debug, Clone, Copy)]
pub enum FixpointMode {
    Exhaustive,
    CostThreshold { delta: f64, patience: usize },
}

/// What identifies a memo expression: its interned operator payload, its
/// interned convention and its child sets. For a live expression the
/// child ids are canonical (a merge re-keys the loser's parents).
#[derive(Clone, PartialEq, Eq, Hash)]
struct ExprKey {
    op: usize,
    conv: ConvId,
    children: Vec<GroupId>,
}

/// A memoized expression: operator + convention over child equivalence
/// sets.
struct MExpr {
    key: ExprKey,
    group: GroupId,
    /// The expression over its child sets' representatives. A stable
    /// `Arc`: rules see the same node on every binding, so the
    /// pointer-keyed metadata cache hits during the search.
    node: Rel,
    /// Convention required of the children: the source convention for a
    /// `Convert`, the expression's own otherwise.
    child_conv: ConvId,
    /// Tick at which the arrival was processed ([`NOT_ARRIVED`] before):
    /// a binding is built when the last of its expressions arrives.
    arrived: u32,
    /// Coincided with an older expression after a merge; that one stands
    /// for both.
    dead: bool,
    /// `non_cumulative_cost` of `node`, taken once per node.
    cost: Option<Cost>,
}

/// An equivalence set of expressions.
struct Group {
    exprs: Vec<ExprId>,
    /// The child slots this set fills.
    parents: Vec<Slot>,
    /// A concrete representative tree, used to answer metadata queries.
    repr: Rel,
}

/// Work for the search loop, in arrival order.
enum Arrival {
    /// A new expression.
    New(ExprId),
    /// A merge at tick `at` put `exprs` into the set filling `parents`.
    Merged {
        at: u32,
        exprs: Vec<ExprId>,
        parents: Vec<Slot>,
    },
}

/// One rule binding: the rule's index, then the bound expressions in
/// pattern pre-order — the identity of a firing.
type Binding = Vec<usize>;

struct Memo {
    groups: Vec<Group>,
    exprs: Vec<MExpr>,
    expr_map: HashMap<ExprKey, ExprId>,
    /// Union-find over groups (set merging).
    uf: Vec<GroupId>,
    /// Operator payload digest → id; a payload is printed once per node
    /// handed to [`Memo::register`], never per lookup.
    ops: HashMap<String, usize>,
    convs: Vec<Convention>,
    /// Converter edges as (from, to, interned `Convert` payload).
    converters: Vec<(ConvId, ConvId, usize)>,
    /// Address of every representative and expression node → its set.
    /// Rule results are built over such nodes; registration stops there.
    by_ptr: HashMap<usize, GroupId>,
    /// Nodes replaced after a merge: bindings built before it still point
    /// at them, and their addresses must stay unique.
    retired: Vec<Rel>,
    arrivals: VecDeque<Arrival>,
    /// Arrivals processed so far.
    clock: u32,
}

fn addr(rel: &Rel) -> usize {
    Arc::as_ptr(rel) as usize
}

impl Memo {
    fn new(converters: &[ConverterDef]) -> Memo {
        let mut memo = Memo {
            groups: vec![],
            exprs: vec![],
            expr_map: HashMap::new(),
            uf: vec![],
            ops: HashMap::new(),
            convs: vec![Convention::none()],
            converters: vec![],
            by_ptr: HashMap::new(),
            retired: vec![],
            arrivals: VecDeque::new(),
            clock: 0,
        };
        for c in converters {
            // Logical rows have no engine to convert from; a self-edge
            // converts nothing.
            if c.from.is_none() || c.from == c.to {
                continue;
            }
            let op = memo.intern_op(&RelOp::Convert {
                from: c.from.clone(),
            });
            let edge = (memo.intern_conv(&c.from), memo.intern_conv(&c.to), op);
            memo.converters.push(edge);
        }
        memo
    }

    fn find(&mut self, g: GroupId) -> GroupId {
        if self.uf[g] != g {
            let root = self.find(self.uf[g]);
            self.uf[g] = root;
        }
        self.uf[g]
    }

    fn intern_op(&mut self, op: &RelOp) -> usize {
        let next = self.ops.len();
        *self.ops.entry(op.payload_digest()).or_insert(next)
    }

    fn intern_conv(&mut self, conv: &Convention) -> ConvId {
        self.convs
            .iter()
            .position(|c| c == conv)
            .unwrap_or_else(|| {
                self.convs.push(conv.clone());
                self.convs.len() - 1
            })
    }

    /// Registers a concrete tree and returns its set. Subtrees that are
    /// memo nodes already (representatives, bound expressions) are
    /// recognised by address, so a rule's result costs its new nodes only.
    /// A new root expression joins `into` when given, a fresh set
    /// otherwise.
    fn register(&mut self, rel: &Rel, into: Option<GroupId>) -> GroupId {
        if let Some(&g) = self.by_ptr.get(&addr(rel)) {
            return self.find(g);
        }
        let children: Vec<GroupId> = rel.inputs.iter().map(|i| self.register(i, None)).collect();
        let key = ExprKey {
            op: self.intern_op(&rel.op),
            conv: self.intern_conv(&rel.convention),
            children,
        };
        if let Some(&e) = self.expr_map.get(&key) {
            return self.exprs[e].group;
        }
        let over_reprs = rel
            .inputs
            .iter()
            .zip(&key.children)
            .all(|(i, g)| Arc::ptr_eq(i, &self.groups[*g].repr));
        let node = if over_reprs {
            rel.clone()
        } else {
            self.node_over_reprs(&rel.op, &rel.convention, &key.children)
        };
        let group = into.unwrap_or_else(|| {
            self.groups.push(Group {
                exprs: vec![],
                parents: vec![],
                repr: node.clone(),
            });
            self.uf.push(self.uf.len());
            self.groups.len() - 1
        });
        self.add_expr(key, node, group);
        group
    }

    fn node_over_reprs(&self, op: &RelOp, conv: &Convention, children: &[GroupId]) -> Rel {
        let inputs = children
            .iter()
            .map(|g| self.groups[*g].repr.clone())
            .collect();
        RelNode::new(op.clone(), conv.clone(), inputs)
    }

    /// Adds a new expression to `group`, queues its arrival, and adds the
    /// `Convert` expressions its convention has edges for (each visited
    /// here in turn, so chains across distinct conventions form).
    fn add_expr(&mut self, key: ExprKey, node: Rel, group: GroupId) {
        let e = self.exprs.len();
        for (slot, c) in key.children.iter().enumerate() {
            self.groups[*c].parents.push((e, slot));
        }
        self.by_ptr.insert(addr(&node), group);
        self.expr_map.insert(key.clone(), e);
        let conv = key.conv;
        let child_conv = match &node.op {
            RelOp::Convert { from } => self.intern_conv(from),
            _ => conv,
        };
        self.exprs.push(MExpr {
            key,
            group,
            node,
            child_conv,
            arrived: NOT_ARRIVED,
            dead: false,
            cost: None,
        });
        self.groups[group].exprs.push(e);
        self.arrivals.push_back(Arrival::New(e));
        for i in 0..self.converters.len() {
            let (from, to, op) = self.converters[i];
            if from != conv {
                continue;
            }
            let key = ExprKey {
                op,
                conv: to,
                children: vec![group],
            };
            if !self.expr_map.contains_key(&key) {
                let op = RelOp::Convert {
                    from: self.convs[from].clone(),
                };
                let node = self.node_over_reprs(&op, &self.convs[to], &key.children);
                self.add_expr(key, node, group);
            }
        }
    }

    /// Registers `rel` as a member of `target`'s set, merging sets when it
    /// exists elsewhere already.
    fn register_into(&mut self, rel: &Rel, target: GroupId) {
        let target = self.find(target);
        let g = self.register(rel, Some(target));
        self.merge(target, g);
    }

    /// Unions two sets (the lower id survives). Each side's expressions
    /// arrive at the other side's parents; the loser's parents are
    /// re-keyed, and two parents that now coincide are one expression, so
    /// their sets merge in turn.
    fn merge(&mut self, a: GroupId, b: GroupId) {
        let mut pending = vec![(a, b)];
        while let Some((a, b)) = pending.pop() {
            let (a, b) = (self.find(a), self.find(b));
            if a == b {
                continue;
            }
            let (winner, loser) = if a < b { (a, b) } else { (b, a) };
            let moved = std::mem::take(&mut self.groups[loser].exprs);
            let moved_parents = std::mem::take(&mut self.groups[loser].parents);
            let crossed = [
                self.merged_arrival(&moved, &self.groups[winner].parents),
                self.merged_arrival(&self.groups[winner].exprs, &moved_parents),
            ];
            self.arrivals.extend(crossed.into_iter().flatten());
            for &e in &moved {
                self.exprs[e].group = winner;
            }
            self.uf[loser] = winner;
            self.groups[winner].exprs.extend(moved);
            for &(p, slot) in &moved_parents {
                // Dead, or re-keyed through another of its slots already.
                if self.exprs[p].dead || self.exprs[p].key.children[slot] != loser {
                    continue;
                }
                let mut key = self.exprs[p].key.clone();
                if self.expr_map.get(&key) == Some(&p) {
                    self.expr_map.remove(&key);
                }
                for c in &mut key.children {
                    if *c == loser {
                        *c = winner;
                    }
                }
                if let Some(&q) = self.expr_map.get(&key) {
                    // The older expression stands for both.
                    pending.push((self.exprs[p].group, self.exprs[q].group));
                    self.exprs[q.max(p)].dead = true;
                    if q < p {
                        continue;
                    }
                }
                self.expr_map.insert(key.clone(), p);
                // Metadata is answered over the surviving representative.
                let x = &self.exprs[p];
                let node = self.node_over_reprs(&x.node.op, &x.node.convention, &key.children);
                self.by_ptr.insert(addr(&node), x.group);
                let x = &mut self.exprs[p];
                x.key = key;
                x.cost = None;
                self.retired.push(std::mem::replace(&mut x.node, node));
            }
            self.groups[winner].parents.extend(moved_parents);
        }
    }

    /// The arrival of `exprs` at `parents`, restricted to what has arrived
    /// by now: anything later sees the merged set on its own arrival.
    fn merged_arrival(&self, exprs: &[ExprId], parents: &[Slot]) -> Option<Arrival> {
        let at = self.clock;
        let exprs: Vec<ExprId> = exprs
            .iter()
            .copied()
            .filter(|e| self.visible(*e, at))
            .collect();
        let parents: Vec<Slot> = parents
            .iter()
            .copied()
            .filter(|(p, _)| self.visible(*p, at))
            .collect();
        (!exprs.is_empty() && !parents.is_empty()).then_some(Arrival::Merged { at, exprs, parents })
    }

    fn visible(&self, e: ExprId, horizon: u32) -> bool {
        let x = &self.exprs[e];
        !x.dead && x.arrived <= horizon
    }
}

/// Pattern matching over the memo. A binding is a pre-order list of
/// expression ids; it is built at the arrival of the last of its
/// expressions, so `horizon` bounds what may take part.
impl Memo {
    /// Bindings of `pat` rooted at `e`. A non-empty `pin` fixes the way
    /// down: its first entry names the one candidate for that child slot,
    /// the rest pins that candidate's children in turn.
    fn bind(&self, e: ExprId, pat: &Pattern, pin: &[Slot], horizon: u32) -> Vec<Vec<ExprId>> {
        let x = &self.exprs[e];
        if !pat.matcher.admits(x.node.kind(), &x.node.convention) {
            return vec![];
        }
        let pats = match &pat.children {
            // Children stay unbound, so no binding here contains the pin.
            Children::Any if pin.is_empty() => return vec![vec![e]],
            Children::Any => return vec![],
            Children::Are(pats) if pats.len() != x.key.children.len() => return vec![],
            Children::Are(pats) => pats,
        };
        let mut combos = vec![vec![e]];
        for (slot, (child_pat, g)) in pats.iter().zip(&x.key.children).enumerate() {
            let candidates: Vec<Vec<ExprId>> = match pin.first() {
                Some(&(c, pinned)) if pinned == slot => self.bind(c, child_pat, &pin[1..], horizon),
                _ => self.groups[*g]
                    .exprs
                    .iter()
                    .filter(|c| self.visible(**c, horizon))
                    .flat_map(|c| self.bind(*c, child_pat, &[], horizon))
                    .collect(),
            };
            combos = combos
                .iter()
                .flat_map(|head| {
                    candidates
                        .iter()
                        .map(move |tail| [&head[..], tail].concat())
                })
                .collect();
            if combos.is_empty() {
                break;
            }
        }
        combos
    }

    /// Bindings that contain `below` as a non-root: for each of `parents`
    /// and each rule of its kind, the bindings rooted at the parent with
    /// `below` pinned in its slot — and, while some pattern is deeper, at
    /// the parent's own parents with the whole path pinned.
    fn bind_above(
        &self,
        below: ExprId,
        path: &[Slot],
        parents: &[Slot],
        horizon: u32,
        rules: &RuleSet,
        out: &mut Vec<Binding>,
    ) {
        for &(p, slot) in parents {
            if !self.visible(p, horizon) {
                continue;
            }
            let pin = [&[(below, slot)], path].concat();
            self.bind_rules(p, &pin, horizon, rules, out);
            if rules.max_depth() > pin.len() + 1 {
                let grandparents = &self.groups[self.exprs[p].group].parents;
                self.bind_above(p, &pin, grandparents, horizon, rules, out);
            }
        }
    }

    /// Bindings rooted at `e` of every rule its kind is indexed under.
    fn bind_rules(
        &self,
        e: ExprId,
        pin: &[Slot],
        horizon: u32,
        rules: &RuleSet,
        out: &mut Vec<Binding>,
    ) {
        for &r in rules.for_kind(self.exprs[e].node.kind()) {
            for ids in self.bind(e, rules.pattern(r), pin, horizon) {
                out.push([&[r][..], &ids].concat());
            }
        }
    }

    /// The bindings an arrival completes.
    fn bindings_for(&mut self, arrival: Arrival, rules: &RuleSet) -> Vec<Binding> {
        let mut out = vec![];
        match arrival {
            Arrival::New(e) if self.exprs[e].dead => {}
            Arrival::New(e) => {
                self.exprs[e].arrived = self.clock;
                self.bind_rules(e, &[], self.clock, rules, &mut out);
                if rules.max_depth() > 1 {
                    let parents = &self.groups[self.exprs[e].group].parents;
                    self.bind_above(e, &[], parents, self.clock, rules, &mut out);
                }
            }
            Arrival::Merged { at, exprs, parents } => {
                for e in exprs {
                    if !self.exprs[e].dead {
                        self.bind_above(e, &[], &parents, at, rules, &mut out);
                    }
                }
            }
        }
        out
    }

    /// Concrete nodes for a binding of `pat`, in pre-order. A node whose
    /// children are unbound is the expression's own stable node; a bound
    /// parent is rebuilt over its bound children unless those are its
    /// sets' representatives anyway.
    fn materialize(&self, pat: &Pattern, ids: &[ExprId]) -> Vec<Rel> {
        fn walk(
            memo: &Memo,
            pat: &Pattern,
            ids: &mut std::slice::Iter<ExprId>,
            out: &mut Vec<Rel>,
        ) {
            let node = &memo.exprs[*ids.next().expect("binding matches its pattern")].node;
            let at = out.len();
            out.push(node.clone());
            if let Children::Are(pats) = &pat.children {
                let mut inputs = Vec::with_capacity(pats.len());
                for p in pats {
                    inputs.push(out.len());
                    walk(memo, p, ids, out);
                }
                let inputs: Vec<Rel> = inputs.into_iter().map(|i| out[i].clone()).collect();
                if inputs
                    .iter()
                    .zip(&node.inputs)
                    .any(|(a, b)| !Arc::ptr_eq(a, b))
                {
                    out[at] = RelNode::new(node.op.clone(), node.convention.clone(), inputs);
                }
            }
        }
        let mut out = Vec::with_capacity(ids.len());
        walk(self, pat, &mut ids.iter(), &mut out);
        out
    }
}

/// Statistics from a planning run — the sizes the paper's memo structures
/// reach (reported by `bench_planners`) and what the search spent.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VolcanoStats {
    pub groups: usize,
    pub expressions: usize,
    /// Bindings whose rule produced at least one expression.
    pub rule_firings: usize,
    /// (rule, binding) pairs the matcher built.
    pub bindings: usize,
    /// Of those, pairs that had been tried before and were skipped.
    pub duplicate_bindings: usize,
    /// The budget ran out with arrivals still queued: the plan is the best
    /// of a partial search, not of the rule set's closure.
    pub truncated: bool,
}

pub struct VolcanoPlanner {
    rules: RuleSet,
    converters: Vec<ConverterDef>,
    mode: FixpointMode,
    max_expressions: usize,
    max_firings: usize,
}

/// Firings between two cost checkpoints of [`FixpointMode::CostThreshold`].
const CHECK_INTERVAL: usize = 64;

impl VolcanoPlanner {
    pub fn new(rules: Vec<Arc<dyn Rule>>) -> VolcanoPlanner {
        VolcanoPlanner {
            rules: RuleSet::new(rules),
            converters: vec![],
            mode: FixpointMode::Exhaustive,
            max_expressions: 20_000,
            max_firings: 50_000,
        }
    }

    pub fn add_rule(&mut self, rule: Arc<dyn Rule>) {
        self.rules.push(rule);
    }

    pub fn add_converter(&mut self, from: Convention, to: Convention) {
        self.converters.push(ConverterDef { from, to });
    }

    pub fn with_mode(mut self, mode: FixpointMode) -> VolcanoPlanner {
        self.mode = mode;
        self
    }

    pub fn with_budget(mut self, max_expressions: usize, max_firings: usize) -> VolcanoPlanner {
        self.max_expressions = max_expressions;
        self.max_firings = max_firings;
        self
    }

    /// Optimizes and also reports memo statistics.
    pub fn optimize_with_stats(
        &self,
        root: &Rel,
        required: &Convention,
        mq: &MetadataQuery,
    ) -> Result<(Rel, Cost, VolcanoStats)> {
        let mut memo = Memo::new(&self.converters);
        let root_group = memo.register(root, None);
        // Join order comes from one dynamic program, not from rules: each
        // inner-join region of three or more inputs gets the program's
        // tree beside the written one, in the written region's set.
        for (written, seed) in join_order::reorder(root, mq) {
            let region = memo.register(&written, None);
            memo.register_into(&seed, region);
        }
        let mut stats = self.search(&mut memo, root_group, required, mq);
        stats.groups = memo
            .groups
            .iter()
            .filter(|g| g.exprs.iter().any(|e| !memo.exprs[*e].dead))
            .count();
        stats.expressions = memo.exprs.iter().filter(|x| !x.dead).count();
        let (plan, cost) = extract(&mut memo, root_group, required, mq)?;
        Ok((plan, cost, stats))
    }

    /// Runs the queued arrivals to exhaustion, or until the budget or the
    /// δ-threshold stops the search.
    fn search(
        &self,
        memo: &mut Memo,
        root_group: GroupId,
        required: &Convention,
        mq: &MetadataQuery,
    ) -> VolcanoStats {
        let mut stats = VolcanoStats::default();
        let mut tried: HashSet<Binding> = HashSet::new();
        let mut checkpoint_cost = f64::INFINITY;
        let mut stalled = 0usize;
        let mut since_check = 0usize;
        while let Some(arrival) = memo.arrivals.pop_front() {
            if memo.exprs.len() > self.max_expressions || stats.rule_firings > self.max_firings {
                stats.truncated = true;
                break;
            }
            memo.clock += 1;
            for binding in memo.bindings_for(arrival, &self.rules) {
                stats.bindings += 1;
                if tried.contains(&binding) {
                    stats.duplicate_bindings += 1;
                    continue;
                }
                let (rule, ids) = (binding[0], &binding[1..]);
                // An expression that coincided with another since the
                // binding was built fires through that one.
                if ids.iter().any(|e| memo.exprs[*e].dead) {
                    continue;
                }
                let rels = memo.materialize(self.rules.pattern(rule), ids);
                let root_expr = ids[0];
                tried.insert(binding);
                let mut call = RuleCall::new(rels, mq);
                self.rules.rule(rule).on_match(&mut call);
                let results = call.into_results();
                if results.is_empty() {
                    continue;
                }
                stats.rule_firings += 1;
                for result in results {
                    memo.register_into(&result, memo.exprs[root_expr].group);
                }
                since_check += 1;
                let FixpointMode::CostThreshold { delta, patience } = self.mode else {
                    continue;
                };
                if since_check < CHECK_INTERVAL {
                    continue;
                }
                since_check = 0;
                if let Ok((_, cost)) = extract(memo, root_group, required, mq) {
                    let v = mq.cost_model().weigh(&cost);
                    let improvement = (checkpoint_cost - v) / checkpoint_cost.max(1e-9);
                    if checkpoint_cost.is_finite() && improvement < delta {
                        stalled += 1;
                        if stalled >= patience {
                            return stats;
                        }
                    } else {
                        stalled = 0;
                    }
                    checkpoint_cost = v;
                }
            }
        }
        stats
    }
}

/// Dynamic-programming extraction: cheapest implementation per (set,
/// convention). Each expression's own cost is taken once; an improved
/// entry re-relaxes only the parents that consume it, so converter cycles
/// settle without sweeping the memo. Then the best tree is built for the
/// root.
fn extract(
    memo: &mut Memo,
    root_group: GroupId,
    required: &Convention,
    mq: &MetadataQuery,
) -> Result<(Rel, Cost)> {
    #[derive(Clone, Copy)]
    struct Best {
        weight: f64,
        cost: Cost,
        expr: ExprId,
    }
    let root_group = memo.find(root_group);
    let convs = memo.convs.len();
    let mut best: Vec<Option<Best>> = vec![None; memo.groups.len() * convs];

    // Logical expressions are not executable.
    let mut queued: Vec<bool> = memo
        .exprs
        .iter()
        .map(|x| !x.dead && x.key.conv != LOGICAL)
        .collect();
    let mut queue: VecDeque<ExprId> = (0..memo.exprs.len()).filter(|e| queued[*e]).collect();
    'relax: while let Some(e) = queue.pop_front() {
        queued[e] = false;
        let x = &mut memo.exprs[e];
        let mut total = *x
            .cost
            .get_or_insert_with(|| mq.non_cumulative_cost(&x.node));
        for g in &x.key.children {
            match best[g * convs + x.child_conv] {
                Some(input) => total = total.plus(&input.cost),
                None => continue 'relax,
            }
        }
        if total.is_infinite() {
            continue;
        }
        let weight = mq.cost_model().weigh(&total);
        let entry = &mut best[x.group * convs + x.key.conv];
        if entry.is_some_and(|b| weight >= b.weight - 1e-9) {
            continue;
        }
        *entry = Some(Best {
            weight,
            cost: total,
            expr: e,
        });
        let produced = x.key.conv;
        for &(p, _) in &memo.groups[x.group].parents {
            let px = &memo.exprs[p];
            if !px.dead && !queued[p] && px.key.conv != LOGICAL && px.child_conv == produced {
                queued[p] = true;
                queue.push_back(p);
            }
        }
    }

    fn build(
        memo: &Memo,
        best: &[Option<Best>],
        group: GroupId,
        conv: ConvId,
        depth: usize,
    ) -> Result<Rel> {
        if depth > 512 {
            return Err(CalciteError::internal("plan extraction recursion overflow"));
        }
        let entry = best[group * memo.convs.len() + conv].ok_or_else(|| {
            CalciteError::internal(format!(
                "missing best plan for group {group} in {}",
                memo.convs[conv]
            ))
        })?;
        let x = &memo.exprs[entry.expr];
        let inputs = x
            .key
            .children
            .iter()
            .map(|g| build(memo, best, *g, x.child_conv, depth + 1))
            .collect::<Result<Vec<Rel>>>()?;
        Ok(RelNode::new(
            x.node.op.clone(),
            x.node.convention.clone(),
            inputs,
        ))
    }
    let (required, root_best) = memo
        .convs
        .iter()
        .position(|c| c == required)
        .and_then(|c| Some((c, best[root_group * convs + c]?)))
        .ok_or_else(|| {
            CalciteError::plan(format!(
                "no implementation of the root in convention '{required}'; \
                 register implementation rules and converters"
            ))
        })?;
    let plan = build(memo, &best, root_group, required, 0)?;
    Ok((plan, root_best.cost))
}

impl PlannerEngine for VolcanoPlanner {
    fn optimize(&self, root: &Rel, required: &Convention, mq: &MetadataQuery) -> Result<Rel> {
        self.optimize_with_stats(root, required, mq)
            .map(|(plan, _, _)| plan)
    }

    fn name(&self) -> &str {
        "volcano"
    }
}

/// Implements every logical operator in a target convention by re-stamping
/// the convention trait (the paper's point that logical and physical
/// operators are the same entities distinguished by traits). This is the
/// implementation rule of the `enumerable` convention, which can execute
/// every operator; adapters register narrower rules.
pub struct UniversalImplementRule {
    conv: Convention,
    name: String,
}

impl UniversalImplementRule {
    pub fn new(conv: Convention) -> UniversalImplementRule {
        UniversalImplementRule {
            name: format!("Implement({conv})"),
            conv,
        }
    }
}

impl Rule for UniversalImplementRule {
    fn name(&self) -> &str {
        &self.name
    }

    fn pattern(&self) -> Pattern {
        Pattern::any()
    }

    fn on_match(&self, call: &mut RuleCall) {
        let rel = call.rel(0);
        if !rel.convention.is_none() || matches!(rel.op, RelOp::Convert { .. }) {
            return;
        }
        // Scans of adapter-owned tables belong to their backend's
        // convention; they reach this convention through a converter, not
        // by direct enumeration (paper §5: the adapter's table scan is the
        // access path).
        if let RelOp::Scan { table } = &rel.op {
            if !table.table.convention().is_none() {
                return;
            }
        }
        call.transform_to(rel.with_convention(self.conv.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{MemTable, Statistic, TableRef};
    use crate::rel::{self, JoinKind, RelKind};
    use crate::rex::RexNode;
    use crate::rules::{default_logical_rules, JoinAssociateRule, JoinCommuteRule};
    use crate::types::{RelType, RowTypeBuilder, TypeKind};

    fn int_ty() -> RelType {
        RelType::not_null(TypeKind::Integer)
    }

    fn table(name: &str, rows: f64, cols: &[&str]) -> Rel {
        let mut b = RowTypeBuilder::new();
        for c in cols {
            b = b.add_not_null(*c, TypeKind::Integer);
        }
        let t = MemTable::new(b.build(), vec![]).with_statistic(Statistic::of_rows(rows));
        rel::scan(TableRef::new("s", name, t))
    }

    /// Commute plus a test-local association rule: the rule cascade the
    /// dynamic program replaced, kept here because it drives set merges
    /// through the memo.
    fn join_exploration() -> Vec<Arc<dyn Rule>> {
        vec![Arc::new(JoinCommuteRule), Arc::new(JoinAssociateRule)]
    }

    fn planner_with_enumerable(rules: Vec<Arc<dyn Rule>>) -> VolcanoPlanner {
        let mut p = VolcanoPlanner::new(rules);
        p.add_rule(Arc::new(UniversalImplementRule::new(
            Convention::enumerable(),
        )));
        p
    }

    #[test]
    fn implements_simple_scan() {
        let planner = planner_with_enumerable(vec![]);
        let mq = MetadataQuery::standard();
        let t = table("t", 100.0, &["a"]);
        let (plan, cost, stats) = planner
            .optimize_with_stats(&t, &Convention::enumerable(), &mq)
            .unwrap();
        assert!(plan.convention.is_enumerable());
        assert_eq!(plan.kind(), RelKind::Scan);
        assert!(cost.cpu > 0.0);
        assert!(stats.groups >= 1);
    }

    #[test]
    fn fails_without_implementation_rules() {
        let planner = VolcanoPlanner::new(vec![]);
        let mq = MetadataQuery::standard();
        let t = table("t", 100.0, &["a"]);
        let r = planner.optimize_with_stats(&t, &Convention::enumerable(), &mq);
        assert!(matches!(r, Err(CalciteError::Plan(_))));
    }

    #[test]
    fn pushdown_plus_implementation() {
        // Filter above join gets pushed AND everything is physicalized.
        let sales = table("sales", 10_000.0, &["pid", "discount"]);
        let products = table("products", 100.0, &["pid", "name"]);
        let join = rel::join(
            sales,
            products,
            JoinKind::Inner,
            RexNode::input(0, int_ty()).eq(RexNode::input(2, int_ty())),
        );
        let root = rel::filter(join, RexNode::input(1, int_ty()).gt(RexNode::lit_int(0)));
        let planner = planner_with_enumerable(default_logical_rules());
        let mq = MetadataQuery::standard();
        let (plan, _, _) = planner
            .optimize_with_stats(&root, &Convention::enumerable(), &mq)
            .unwrap();
        assert!(plan.convention.is_enumerable());
        // Cheapest plan filters below the join.
        assert_eq!(plan.kind(), RelKind::Join);
        let has_filter_below = plan.inputs.iter().any(|i| i.kind() == RelKind::Filter);
        assert!(has_filter_below, "plan: {}", plan.digest());
    }

    #[test]
    fn join_order_chosen_by_cost() {
        // big ⋈ small should become small-build hash join either way, but
        // associativity lets ((big ⋈ small1) ⋈ small2) be re-bracketed.
        let big = table("big", 100_000.0, &["k1", "k2"]);
        let s1 = table("s1", 10.0, &["k1"]);
        let s2 = table("s2", 10.0, &["k2"]);
        let j1 = rel::join(
            big.clone(),
            s1,
            JoinKind::Inner,
            RexNode::input(0, int_ty()).eq(RexNode::input(2, int_ty())),
        );
        let j2 = rel::join(
            j1,
            s2,
            JoinKind::Inner,
            RexNode::input(1, int_ty()).eq(RexNode::input(3, int_ty())),
        );
        let mut rules = default_logical_rules();
        rules.extend(join_exploration());
        let planner = planner_with_enumerable(rules).with_budget(4_000, 10_000);
        let mq = MetadataQuery::standard();
        let (plan, cost, stats) = planner
            .optimize_with_stats(&j2, &Convention::enumerable(), &mq)
            .unwrap();
        assert!(plan.convention.is_enumerable());
        assert!(stats.rule_firings > 0);
        assert!(!cost.is_infinite());
        // Equivalence sets must have been created beyond the original 6
        // nodes.
        assert!(stats.expressions > 6, "stats: {stats:?}");
    }

    #[test]
    fn converter_crosses_conventions() {
        // A table whose scan is only implementable in a custom convention:
        // the final enumerable plan must include a Convert node.
        struct AdapterScanRule {
            conv: Convention,
        }
        impl Rule for AdapterScanRule {
            fn name(&self) -> &str {
                "AdapterScanRule"
            }
            fn pattern(&self) -> Pattern {
                Pattern::of(RelKind::Scan)
            }
            fn on_match(&self, call: &mut RuleCall) {
                let s = call.rel(0);
                if s.convention.is_none() {
                    call.transform_to(s.with_convention(self.conv.clone()));
                }
            }
        }
        let backend = Convention::new("kvstore");
        let mut planner = VolcanoPlanner::new(vec![Arc::new(AdapterScanRule {
            conv: backend.clone(),
        })]);
        planner.add_converter(backend.clone(), Convention::enumerable());
        let mq = MetadataQuery::standard();
        let t = table("t", 100.0, &["a"]);
        let (plan, _, _) = planner
            .optimize_with_stats(&t, &Convention::enumerable(), &mq)
            .unwrap();
        assert_eq!(plan.kind(), RelKind::Convert);
        assert!(plan.convention.is_enumerable());
        assert_eq!(plan.input(0).kind(), RelKind::Scan);
        assert_eq!(plan.input(0).convention, backend);
    }

    #[test]
    fn threshold_mode_terminates_and_returns_valid_plan() {
        let big = table("big", 50_000.0, &["k"]);
        let small = table("small", 10.0, &["k"]);
        let j = rel::join(
            big,
            small,
            JoinKind::Inner,
            RexNode::input(0, int_ty()).eq(RexNode::input(1, int_ty())),
        );
        let mut rules = default_logical_rules();
        rules.extend(join_exploration());
        let planner = planner_with_enumerable(rules).with_mode(FixpointMode::CostThreshold {
            delta: 0.01,
            patience: 2,
        });
        let mq = MetadataQuery::standard();
        let (plan, cost, _) = planner
            .optimize_with_stats(&j, &Convention::enumerable(), &mq)
            .unwrap();
        assert!(plan.convention.is_enumerable());
        assert!(!cost.is_infinite());
    }

    #[test]
    fn equivalence_sets_merge_on_duplicate_digest() {
        // Registering the same tree twice must not duplicate groups.
        let mut memo = Memo::new(&[]);
        let t = table("t", 100.0, &["a"]);
        let f1 = rel::filter(
            t.clone(),
            RexNode::input(0, int_ty()).gt(RexNode::lit_int(1)),
        );
        let f2 = rel::filter(t, RexNode::input(0, int_ty()).gt(RexNode::lit_int(1)));
        let g1 = memo.register(&f1, None);
        let g2 = memo.register(&f2, None);
        assert_eq!(g1, g2);
        assert_eq!(memo.groups.len(), 2); // scan group + filter group
    }

    // ---------------------------------------------------------------
    // Differential oracle: the incremental search against naive
    // saturation.
    // ---------------------------------------------------------------

    /// The reference search: re-binds every rule against every expression
    /// combination, pass after pass, until a pass finds nothing it has not
    /// tried. No arrivals, no pins, no rule index, no budget — only the
    /// memo and the binder are shared with the engine under test.
    fn saturate_naive(planner: &VolcanoPlanner, memo: &mut Memo, mq: &MetadataQuery) {
        let mut tried: HashSet<Binding> = HashSet::new();
        loop {
            memo.arrivals.clear();
            for x in &mut memo.exprs {
                x.arrived = 0;
            }
            let mut progressed = false;
            for e in 0..memo.exprs.len() {
                for r in 0..planner.rules.len() {
                    for ids in memo.bind(e, planner.rules.pattern(r), &[], 0) {
                        let binding = [&[r][..], &ids].concat();
                        if ids.iter().any(|i| memo.exprs[*i].dead) || !tried.insert(binding) {
                            continue;
                        }
                        progressed = true;
                        let rels = memo.materialize(planner.rules.pattern(r), &ids);
                        let mut call = RuleCall::new(rels, mq);
                        planner.rules.rule(r).on_match(&mut call);
                        for result in call.into_results() {
                            memo.register_into(&result, memo.exprs[e].group);
                        }
                    }
                }
            }
            if !progressed {
                return;
            }
        }
    }

    /// Asserts that two memos hold the same expressions partitioned into
    /// the same sets, up to numbering. The set correspondence grows from
    /// the leaves: an expression of `a` whose child sets are mapped must
    /// exist in `b`, and its set maps to that expression's set.
    fn assert_same_memo(a: &Memo, b: &Memo) {
        let live = |m: &Memo| -> Vec<ExprId> {
            (0..m.exprs.len()).filter(|e| !m.exprs[*e].dead).collect()
        };
        assert_eq!(live(a).len(), live(b).len(), "live expression count");
        let payload: HashMap<usize, &String> = a.ops.iter().map(|(d, id)| (*id, d)).collect();
        let mut sets: HashMap<GroupId, GroupId> = HashMap::new();
        let mut pending = live(a);
        while !pending.is_empty() {
            let before = pending.len();
            pending.retain(|e| {
                let x = &a.exprs[*e];
                let children: Option<Vec<GroupId>> = x
                    .key
                    .children
                    .iter()
                    .map(|g| sets.get(g).copied())
                    .collect();
                let Some(children) = children else {
                    return true;
                };
                let key = b.ops.get(payload[&x.key.op]).and_then(|op| {
                    let conv = b.convs.iter().position(|c| *c == a.convs[x.key.conv])?;
                    Some(ExprKey {
                        op: *op,
                        conv,
                        children,
                    })
                });
                let twin = key
                    .and_then(|k| b.expr_map.get(&k))
                    .filter(|t| !b.exprs[**t].dead)
                    .unwrap_or_else(|| panic!("only one memo holds {}", x.node.digest()));
                let set = b.exprs[*twin].group;
                assert_eq!(
                    *sets.entry(x.group).or_insert(set),
                    set,
                    "{} sits in different sets",
                    x.node.digest()
                );
                false
            });
            assert!(pending.len() < before, "sets unreachable from the leaves");
        }
        let images: HashSet<&GroupId> = sets.values().collect();
        assert_eq!(
            images.len(),
            sets.len(),
            "two sets of one memo are one set in the other"
        );
    }

    /// Runs both searches over `root` and checks memo and best cost agree.
    fn check_against_naive(planner: &VolcanoPlanner, root: &Rel) -> VolcanoStats {
        let required = Convention::enumerable();
        let mq = MetadataQuery::standard();
        let mut incremental = Memo::new(&planner.converters);
        let group = incremental.register(root, None);
        let stats = planner.search(&mut incremental, group, &required, &mq);
        assert!(!stats.truncated, "{stats:?}");

        let naive_mq = MetadataQuery::standard();
        let mut naive = Memo::new(&planner.converters);
        let naive_group = naive.register(root, None);
        saturate_naive(planner, &mut naive, &naive_mq);

        assert_same_memo(&incremental, &naive);
        let (_, cost) = extract(&mut incremental, group, &required, &mq).unwrap();
        let (_, naive_cost) = extract(&mut naive, naive_group, &required, &naive_mq).unwrap();
        let (w, naive_w) = (
            mq.cost_model().weigh(&cost),
            mq.cost_model().weigh(&naive_cost),
        );
        assert!(
            (w - naive_w).abs() <= 1e-9 * naive_w.abs(),
            "{w} vs {naive_w}"
        );
        stats
    }

    /// The connection's cost-based battery: logical, index and join
    /// exploration rules plus the enumerable implementation rule.
    fn full_planner() -> VolcanoPlanner {
        let mut rules = default_logical_rules();
        rules.extend(crate::rules::index_access_rules());
        rules.extend(join_exploration());
        planner_with_enumerable(rules)
    }

    fn col(i: usize) -> RexNode {
        RexNode::input(i, int_ty())
    }

    /// `t1 ⋈ … ⋈ tn` on `t(k).next_id = t(k+1).id`, filtered on both ends
    /// and projected — the ledger's join-chain statement.
    fn chain(n: usize) -> Rel {
        let mut plan = table("t1", 100.0, &["id", "next_id", "v"]);
        for k in 2..=n {
            let right = table(&format!("t{k}"), 100.0 * k as f64, &["id", "next_id", "v"]);
            let next_id = 3 * (k - 2) + 1;
            let on = col(next_id).eq(col(3 * (k - 1)));
            plan = rel::join(plan, right, JoinKind::Inner, on);
        }
        let condition = RexNode::and_all(vec![
            col(2).eq(RexNode::lit_int(7)),
            RexNode::call(
                crate::rex::Op::Ne,
                vec![col(3 * (n - 1)), RexNode::lit_int(1_000_007)],
            ),
        ]);
        rel::project(
            rel::filter(plan, condition),
            vec![col(0), col(3 * (n - 1) + 2)],
            vec!["id".into(), "v".into()],
        )
    }

    #[test]
    fn incremental_search_equals_naive_saturation_on_join_chains() {
        for n in 2..=4 {
            let stats = check_against_naive(&full_planner(), &chain(n));
            assert!(stats.rule_firings > 0);
        }
    }

    #[test]
    fn incremental_search_equals_naive_saturation_on_single_table_shapes() {
        let t = || table("t", 1_000.0, &["a", "b", "c"]);
        let gt = |i: usize, v: i64| col(i).gt(RexNode::lit_int(v));
        // Filter over aggregate over project, with a foldable conjunct.
        let projected = rel::project(
            rel::filter(t(), RexNode::and_all(vec![gt(0, 1), RexNode::true_lit()])),
            vec![col(1), col(2)],
            vec!["b".into(), "c".into()],
        );
        let aggregated = rel::aggregate(
            projected,
            vec![0],
            vec![crate::rel::AggCall::count_star("n")],
        );
        let having = rel::filter(aggregated, gt(0, 3));
        // Filter over a union of two filtered branches.
        let union = rel::filter(
            rel::union(
                vec![rel::filter(t(), gt(0, 5)), rel::filter(t(), gt(1, 6))],
                false,
            ),
            gt(2, 7),
        );
        // Sort over project over sort, filtered above.
        let order = |i| vec![crate::traits::FieldCollation::asc(i)];
        let sorted = rel::filter(
            rel::sort(
                rel::project(
                    rel::sort(t(), order(1)),
                    vec![col(0), col(1)],
                    vec!["a".into(), "b".into()],
                ),
                order(0),
            ),
            gt(1, 2),
        );
        for root in [having, union, sorted] {
            check_against_naive(&full_planner(), &root);
        }
    }

    #[test]
    fn incremental_search_equals_naive_saturation_with_index_rules() {
        use crate::catalog::Table;
        use crate::index::IndexDef;
        let indexed = |name: &str| {
            let t = MemTable::new(
                RowTypeBuilder::new()
                    .add_not_null("a", TypeKind::Integer)
                    .add_not_null("b", TypeKind::Integer)
                    .build(),
                (0..50).map(|i| rel::int_row(&[i, i % 5])).collect(),
            );
            t.create_index(&IndexDef::ordered("i_a", vec![0])).unwrap();
            rel::scan(TableRef::new("s", name, t))
        };
        let seek = rel::project(
            rel::filter(indexed("t"), col(0).eq(RexNode::lit_int(7))),
            vec![col(0)],
            vec!["a".into()],
        );
        let probe = rel::filter(
            rel::join(
                table("outer", 10.0, &["x", "y"]),
                indexed("u"),
                JoinKind::Inner,
                col(0).eq(col(2)),
            ),
            col(1).gt(RexNode::lit_int(3)),
        );
        for root in [seek, probe] {
            check_against_naive(&full_planner(), &root);
        }
    }

    /// Scans (and filters over them) of any table implement in `conv`.
    struct BackendRule {
        conv: Convention,
        pattern: Pattern,
    }

    impl Rule for BackendRule {
        fn name(&self) -> &str {
            "BackendRule"
        }
        fn pattern(&self) -> Pattern {
            self.pattern.clone()
        }
        fn on_match(&self, call: &mut RuleCall) {
            let top = call.rel(0);
            let pushed_below = top.inputs.iter().all(|i| i.convention == self.conv);
            if top.convention.is_none() && pushed_below {
                call.transform_to(top.with_convention(self.conv.clone()));
            }
        }
    }

    #[test]
    fn incremental_search_equals_naive_saturation_across_two_conventions() {
        let backend = Convention::new("kvstore");
        let mut planner = full_planner();
        planner.add_rule(Arc::new(BackendRule {
            conv: backend.clone(),
            pattern: Pattern::of(RelKind::Scan),
        }));
        planner.add_rule(Arc::new(BackendRule {
            conv: backend.clone(),
            pattern: Pattern::with_children(RelKind::Filter, vec![Pattern::any()]),
        }));
        planner.add_converter(backend, Convention::enumerable());
        let root = rel::join(
            rel::filter(
                table("l", 500.0, &["a", "b"]),
                col(1).gt(RexNode::lit_int(2)),
            ),
            table("r", 50.0, &["c"]),
            JoinKind::Inner,
            col(0).eq(col(2)),
        );
        check_against_naive(&planner, &root);
    }

    #[test]
    fn a_merge_shows_each_sets_expressions_to_the_others_parents() {
        use std::sync::Mutex;
        // Union(Sort(Filter[a>1](t)), Filter[a>2](t)): the two filters sit
        // in two sets. `Collide` rewrites a>1 to a>2 — an expression the
        // other set holds — so the sets merge and nothing new is created.
        // `Watch` matches Sort(Filter) and must then see a>2 under the
        // Sort, an expression that came from the *other* set.
        struct Collide;
        impl Rule for Collide {
            fn name(&self) -> &str {
                "Collide"
            }
            fn pattern(&self) -> Pattern {
                Pattern::of(RelKind::Filter)
            }
            fn on_match(&self, call: &mut RuleCall) {
                let f = call.rel(0);
                let RelOp::Filter { condition } = &f.op else {
                    return;
                };
                if condition.digest() == "($0 > 1)" {
                    let other = RexNode::input(0, int_ty()).gt(RexNode::lit_int(2));
                    call.transform_to(rel::filter(f.input(0).clone(), other));
                }
            }
        }
        struct Watch(Arc<Mutex<Vec<String>>>);
        impl Rule for Watch {
            fn name(&self) -> &str {
                "Watch"
            }
            fn pattern(&self) -> Pattern {
                Pattern::with_children(RelKind::Sort, vec![Pattern::of(RelKind::Filter)])
            }
            fn on_match(&self, call: &mut RuleCall) {
                if let RelOp::Filter { condition } = &call.rel(1).op {
                    self.0.lock().unwrap().push(condition.digest());
                }
            }
        }
        let t = table("t", 100.0, &["a"]);
        let gt = |v: i64| RexNode::input(0, int_ty()).gt(RexNode::lit_int(v));
        let sorted = rel::sort(
            rel::filter(t.clone(), gt(1)),
            vec![crate::traits::FieldCollation::asc(0)],
        );
        let root = rel::union(vec![sorted, rel::filter(t, gt(2))], true);
        let seen = Arc::new(Mutex::new(vec![]));
        let planner = VolcanoPlanner::new(vec![Arc::new(Collide), Arc::new(Watch(seen.clone()))]);
        let mut memo = Memo::new(&[]);
        let group = memo.register(&root, None);
        let before = memo.exprs.len();
        let mq = MetadataQuery::standard();
        let stats = planner.search(&mut memo, group, &Convention::enumerable(), &mq);
        assert_eq!(
            memo.exprs.len(),
            before,
            "the collision creates no expression"
        );
        assert_eq!(stats.rule_firings, 1);
        assert_eq!(*seen.lock().unwrap(), vec!["($0 > 1)", "($0 > 2)"]);
    }

    #[test]
    fn bindings_built_track_firings_on_a_join5_chain() {
        let planner = full_planner();
        let mq = MetadataQuery::standard();
        let run = || {
            planner
                .optimize_with_stats(&chain(5), &Convention::enumerable(), &mq)
                .unwrap()
                .2
        };
        let stats = run();
        assert!(!stats.truncated, "{stats:?}");
        assert!(stats.bindings <= 2 * stats.rule_firings, "{stats:?}");
        // Counts, so they repeat exactly.
        assert_eq!(run(), stats);
    }

    /// The commute + associate cascade on chains of 2–6 tables, searched
    /// without the join-order seed so that every join set is reached by
    /// rules: counts, which repeat exactly, and one machine-independent
    /// ratio.
    #[test]
    fn the_cascade_builds_two_bindings_a_firing_at_a_cost_that_depth_does_not_grow() {
        let planner = full_planner();
        let required = Convention::enumerable();
        let search = |n: usize| {
            let mq = MetadataQuery::standard();
            let mut memo = Memo::new(&planner.converters);
            let group = memo.register(&chain(n), None);
            let t0 = std::time::Instant::now();
            let stats = planner.search(&mut memo, group, &required, &mq);
            (stats, t0.elapsed())
        };
        for n in 3..=6 {
            // The two-table chain is the exception (2.1): its memo is
            // mostly physical expressions, each of which costs the two
            // any-operator rules a binding they decline. The
            // pre-incremental matcher built thirteen.
            let (stats, _) = search(n);
            assert!(!stats.truncated, "join{n}: {stats:?}");
            assert!(
                stats.bindings <= 2 * stats.rule_firings,
                "join{n} built more than two bindings per firing: {stats:?}"
            );
        }
        // A firing on five tables costs at most 1.5x one on two: its cost
        // does not grow with the depth of the trees under it (3.9x when
        // every binding printed its subtrees). Medians of five runs, the
        // two chains in turn so that a burst of load lands on both.
        let (mut join2, mut join5) = (vec![], vec![]);
        for _ in 0..5 {
            for (n, samples) in [(2, &mut join2), (5, &mut join5)] {
                let (stats, took) = search(n);
                samples.push(took.as_secs_f64() * 1e6 / stats.rule_firings as f64);
            }
        }
        let median = |v: &mut Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let (join2, join5) = (median(&mut join2), median(&mut join5));
        eprintln!("per firing: join2 {join2:.2} us, join5 {join5:.2} us");
        assert!(
            join5 <= 1.5 * join2,
            "a firing on join5 costs {join5:.2} us, more than 1.5x join2's {join2:.2} us"
        );
    }

    #[test]
    fn the_join_order_seed_never_costs_more_than_the_written_order() {
        // Commute alone explores the written order's orientations; the
        // seeded search has those and the dynamic program's tree.
        let mut rules = default_logical_rules();
        rules.push(Arc::new(JoinCommuteRule));
        let planner = planner_with_enumerable(rules);
        let required = Convention::enumerable();
        // `big ⋈ wide` on a low-cardinality key, then the selective
        // `wide ⋈ tiny`: only a different bracketing helps.
        let bad_order = rel::join(
            rel::join(
                table("big", 2_000.0, &["k"]),
                table("wide", 2_000.0, &["k", "j"]),
                JoinKind::Inner,
                col(0).eq(col(1)),
            ),
            table("tiny", 5.0, &["j"]),
            JoinKind::Inner,
            col(2).eq(col(3)),
        );
        let mut improved = 0;
        for root in (3..=6).map(chain).chain([bad_order]) {
            let mq = MetadataQuery::standard();
            let mut memo = Memo::new(&planner.converters);
            let group = memo.register(&root, None);
            planner.search(&mut memo, group, &required, &mq);
            let (_, written) = extract(&mut memo, group, &required, &mq).unwrap();
            let (_, seeded, _) = planner.optimize_with_stats(&root, &required, &mq).unwrap();
            let (written, seeded) = (
                mq.cost_model().weigh(&written),
                mq.cost_model().weigh(&seeded),
            );
            assert!(seeded <= written * (1.0 + 1e-9), "{seeded} > {written}");
            improved += usize::from(seeded < written * (1.0 - 1e-9));
        }
        assert!(improved > 0, "the seed never helped");
    }

    #[test]
    fn a_spent_budget_is_reported() {
        let mq = MetadataQuery::standard();
        let (_, _, stats) = full_planner()
            .with_budget(40, 10_000)
            .optimize_with_stats(&chain(4), &Convention::enumerable(), &mq)
            .unwrap();
        assert!(stats.truncated, "{stats:?}");
        let (_, _, stats) = full_planner()
            .optimize_with_stats(&chain(4), &Convention::enumerable(), &mq)
            .unwrap();
        assert!(!stats.truncated, "{stats:?}");
    }
}
