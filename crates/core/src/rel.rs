//! Relational operators (paper §4). A single operator set serves for both
//! logical and physical plans: physical properties live in traits, chiefly
//! the calling [`Convention`]. `Filter` in the `logical` convention is the
//! paper's `LogicalFilter`; the same `Filter` in the `cassandra` convention
//! is its `CassandraFilter`.

use crate::catalog::TableRef;
use crate::datum::{Datum, Row};
use crate::index::{IndexDef, SeekSpec};
use crate::rex::RexNode;
use crate::traits::{collation_to_string, Collation, Convention};
use crate::types::{Field, RelType, RowType, TypeKind};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Join types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinKind {
    Inner,
    Left,
    Right,
    Full,
    /// Left rows with at least one match; outputs left fields only.
    Semi,
    /// Left rows with no match; outputs left fields only.
    Anti,
}

impl JoinKind {
    pub fn name(&self) -> &'static str {
        match self {
            JoinKind::Inner => "inner",
            JoinKind::Left => "left",
            JoinKind::Right => "right",
            JoinKind::Full => "full",
            JoinKind::Semi => "semi",
            JoinKind::Anti => "anti",
        }
    }

    pub fn projects_right(&self) -> bool {
        !matches!(self, JoinKind::Semi | JoinKind::Anti)
    }

    pub fn generates_nulls_on_left(&self) -> bool {
        matches!(self, JoinKind::Right | JoinKind::Full)
    }

    pub fn generates_nulls_on_right(&self) -> bool {
        matches!(self, JoinKind::Left | JoinKind::Full)
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// COUNT(*) when `args` is empty, COUNT(expr) otherwise.
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

impl AggFunc {
    pub fn name(&self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Avg => "AVG",
        }
    }

    pub fn by_name(name: &str) -> Option<AggFunc> {
        Some(match name.to_ascii_uppercase().as_str() {
            "COUNT" => AggFunc::Count,
            "SUM" => AggFunc::Sum,
            "MIN" => AggFunc::Min,
            "MAX" => AggFunc::Max,
            "AVG" => AggFunc::Avg,
            _ => return None,
        })
    }

    /// Result type given the argument type.
    pub fn ret_type(&self, arg: Option<&RelType>) -> RelType {
        match self {
            AggFunc::Count => RelType::not_null(TypeKind::Integer),
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => arg
                .cloned()
                .map(|t| t.with_nullable(true))
                .unwrap_or(RelType::nullable(TypeKind::Any)),
            AggFunc::Avg => RelType::nullable(TypeKind::Double),
        }
    }
}

/// One aggregate call within an Aggregate operator. Arguments are input
/// field indexes.
#[derive(Debug, Clone, PartialEq)]
pub struct AggCall {
    pub func: AggFunc,
    pub args: Vec<usize>,
    pub distinct: bool,
    pub name: String,
    pub ty: RelType,
}

impl AggCall {
    pub fn new(
        func: AggFunc,
        args: Vec<usize>,
        distinct: bool,
        name: impl Into<String>,
        input: &RowType,
    ) -> AggCall {
        let arg_ty = args.first().map(|i| &input.field(*i).ty);
        AggCall {
            ty: func.ret_type(arg_ty),
            func,
            args,
            distinct,
            name: name.into(),
        }
    }

    pub fn count_star(name: impl Into<String>) -> AggCall {
        AggCall {
            func: AggFunc::Count,
            args: vec![],
            distinct: false,
            name: name.into(),
            ty: RelType::not_null(TypeKind::Integer),
        }
    }
}

impl fmt::Display for AggCall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.func.name())?;
        if self.distinct {
            write!(f, "DISTINCT ")?;
        }
        if self.args.is_empty() {
            write!(f, "*")?;
        } else {
            for (i, a) in self.args.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "${a}")?;
            }
        }
        write!(f, ")")
    }
}

/// Window-function flavours (§4: "Calcite introduces a window operator that
/// encapsulates the window definition ... and the aggregate functions to
/// execute on each window").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WinFunc {
    Agg(AggFunc),
    RowNumber,
    Rank,
}

impl WinFunc {
    pub fn name(&self) -> &'static str {
        match self {
            WinFunc::Agg(a) => a.name(),
            WinFunc::RowNumber => "ROW_NUMBER",
            WinFunc::Rank => "RANK",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameMode {
    /// Frame measured in row counts.
    Rows,
    /// Frame measured in value distance on the ordering key (used by the
    /// streaming sliding windows of §7.2, e.g. `RANGE INTERVAL '1' HOUR
    /// PRECEDING`).
    Range,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameBound {
    UnboundedPreceding,
    /// Rows: count; Range: distance in the ordering key's units (ms for
    /// temporal keys).
    Preceding(i64),
    CurrentRow,
    Following(i64),
    UnboundedFollowing,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WindowFrame {
    pub mode: FrameMode,
    pub lower: FrameBound,
    pub upper: FrameBound,
}

impl WindowFrame {
    /// The default frame: RANGE UNBOUNDED PRECEDING .. CURRENT ROW.
    pub fn default_frame() -> WindowFrame {
        WindowFrame {
            mode: FrameMode::Range,
            lower: FrameBound::UnboundedPreceding,
            upper: FrameBound::CurrentRow,
        }
    }

    pub fn rows(lower: FrameBound, upper: FrameBound) -> WindowFrame {
        WindowFrame {
            mode: FrameMode::Rows,
            lower,
            upper,
        }
    }

    pub fn range(lower: FrameBound, upper: FrameBound) -> WindowFrame {
        WindowFrame {
            mode: FrameMode::Range,
            lower,
            upper,
        }
    }
}

/// One windowed function computed by a Window operator; the window
/// definition (partitioning, ordering, frame) is encapsulated with it.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowFn {
    pub func: WinFunc,
    pub args: Vec<usize>,
    pub partition: Vec<usize>,
    pub order: Collation,
    pub frame: WindowFrame,
    pub name: String,
    pub ty: RelType,
}

impl fmt::Display for WindowFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.func.name())?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "${a}")?;
        }
        write!(f, ") OVER (partition=[")?;
        for (i, p) in self.partition.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "${p}")?;
        }
        write!(f, "] order=[{}]", collation_to_string(&self.order))?;
        write!(
            f,
            " frame={:?}:{:?}..{:?})",
            self.frame.mode, self.frame.lower, self.frame.upper
        )
    }
}

/// The operator payload of a relational node.
#[derive(Clone)]
pub enum RelOp {
    /// Scan of a catalog table.
    Scan {
        table: TableRef,
    },
    /// Index access path: point/range/multi-probe seek against one of the
    /// table's secondary indexes instead of a full scan. `projection`, when
    /// present, restricts the output to the listed base-table columns
    /// (index-only style access). Residual predicates stay in a Filter
    /// above; the cost model decides seek vs scan (§5: adapters expose
    /// access paths, the optimizer chooses by cost).
    IndexSeek {
        table: TableRef,
        index: IndexDef,
        seek: SeekSpec,
        projection: Option<Vec<usize>>,
    },
    /// Index-nested-loop join: for each left row, probes the right table's
    /// index with the left-side key columns, then evaluates the full join
    /// condition on each candidate. The right side is folded into the
    /// operator (one input: the left). Registered by rule as a cost-model
    /// alternative alongside hash join.
    IndexJoin {
        kind: JoinKind,
        condition: RexNode,
        table: TableRef,
        index: IndexDef,
        left_keys: Vec<usize>,
    },
    /// Literal rows.
    Values {
        row_type: RowType,
        tuples: Vec<Row>,
    },
    Filter {
        condition: RexNode,
    },
    Project {
        exprs: Vec<RexNode>,
        names: Vec<String>,
    },
    Join {
        kind: JoinKind,
        condition: RexNode,
    },
    Aggregate {
        group: Vec<usize>,
        aggs: Vec<AggCall>,
    },
    /// Sort with optional OFFSET/FETCH; a pure LIMIT is a Sort with an
    /// empty collation.
    Sort {
        collation: Collation,
        offset: Option<usize>,
        fetch: Option<usize>,
    },
    Window {
        functions: Vec<WindowFn>,
    },
    Union {
        all: bool,
    },
    Intersect {
        all: bool,
    },
    Minus {
        all: bool,
    },
    /// Streaming delta (§7.2): interest in *incoming* records. Produced by
    /// the STREAM keyword.
    Delta,
    /// Calling-convention converter: executes its input in `from` and hands
    /// rows to the enclosing convention. Inserted by the Volcano planner
    /// when the cheapest plan crosses engines.
    Convert {
        from: Convention,
    },
}

/// Fieldless discriminant of `RelOp`, used by rule patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelKind {
    Scan,
    IndexSeek,
    IndexJoin,
    Values,
    Filter,
    Project,
    Join,
    Aggregate,
    Sort,
    Window,
    Union,
    Intersect,
    Minus,
    Delta,
    Convert,
}

impl RelKind {
    /// Every kind, in declaration order (`kind as usize` indexes it):
    /// what a rule whose pattern root is "any operator" is indexed under.
    pub const ALL: [RelKind; 15] = [
        RelKind::Scan,
        RelKind::IndexSeek,
        RelKind::IndexJoin,
        RelKind::Values,
        RelKind::Filter,
        RelKind::Project,
        RelKind::Join,
        RelKind::Aggregate,
        RelKind::Sort,
        RelKind::Window,
        RelKind::Union,
        RelKind::Intersect,
        RelKind::Minus,
        RelKind::Delta,
        RelKind::Convert,
    ];
}

impl RelOp {
    pub fn kind(&self) -> RelKind {
        match self {
            RelOp::Scan { .. } => RelKind::Scan,
            RelOp::IndexSeek { .. } => RelKind::IndexSeek,
            RelOp::IndexJoin { .. } => RelKind::IndexJoin,
            RelOp::Values { .. } => RelKind::Values,
            RelOp::Filter { .. } => RelKind::Filter,
            RelOp::Project { .. } => RelKind::Project,
            RelOp::Join { .. } => RelKind::Join,
            RelOp::Aggregate { .. } => RelKind::Aggregate,
            RelOp::Sort { .. } => RelKind::Sort,
            RelOp::Window { .. } => RelKind::Window,
            RelOp::Union { .. } => RelKind::Union,
            RelOp::Intersect { .. } => RelKind::Intersect,
            RelOp::Minus { .. } => RelKind::Minus,
            RelOp::Delta => RelKind::Delta,
            RelOp::Convert { .. } => RelKind::Convert,
        }
    }

    /// Digest of the operator payload alone (no inputs, no convention).
    pub fn payload_digest(&self) -> String {
        match self {
            RelOp::Scan { table } => format!("Scan({})", table.qualified_name()),
            RelOp::IndexSeek {
                table,
                index,
                seek,
                projection,
            } => {
                let mut s = format!(
                    "IndexSeek({}, {}, {}",
                    table.qualified_name(),
                    index.digest(),
                    seek.digest()
                );
                if let Some(cols) = projection {
                    let cs: Vec<String> = cols.iter().map(|c| format!("${c}")).collect();
                    s.push_str(&format!(", proj=[{}]", cs.join(",")));
                }
                s.push(')');
                s
            }
            RelOp::IndexJoin {
                kind,
                condition,
                table,
                index,
                left_keys,
            } => {
                let ks: Vec<String> = left_keys.iter().map(|k| format!("${k}")).collect();
                format!(
                    "IndexJoin({}, {}, {}, keys=[{}], {})",
                    kind.name(),
                    table.qualified_name(),
                    index.digest(),
                    ks.join(","),
                    condition.digest()
                )
            }
            RelOp::Values { tuples, row_type } => {
                let mut s = format!("Values(arity={}", row_type.arity());
                for t in tuples {
                    s.push(';');
                    for (i, v) in t.iter().enumerate() {
                        if i > 0 {
                            s.push(',');
                        }
                        s.push_str(&v.to_string());
                    }
                }
                s.push(')');
                s
            }
            RelOp::Filter { condition } => format!("Filter({})", condition.digest()),
            RelOp::Project { exprs, names } => {
                let parts: Vec<String> = exprs
                    .iter()
                    .zip(names.iter())
                    .map(|(e, n)| format!("{n}={e}"))
                    .collect();
                format!("Project({})", parts.join(", "))
            }
            RelOp::Join { kind, condition } => {
                format!("Join({}, {})", kind.name(), condition.digest())
            }
            RelOp::Aggregate { group, aggs } => {
                let g: Vec<String> = group.iter().map(|i| format!("${i}")).collect();
                let a: Vec<String> = aggs.iter().map(|c| format!("{}={}", c.name, c)).collect();
                format!(
                    "Aggregate(group=[{}], aggs=[{}])",
                    g.join(", "),
                    a.join(", ")
                )
            }
            RelOp::Sort {
                collation,
                offset,
                fetch,
            } => {
                let mut s = format!("Sort([{}]", collation_to_string(collation));
                if let Some(o) = offset {
                    s.push_str(&format!(", offset={o}"));
                }
                if let Some(f) = fetch {
                    s.push_str(&format!(", fetch={f}"));
                }
                s.push(')');
                s
            }
            RelOp::Window { functions } => {
                let parts: Vec<String> = functions.iter().map(|w| w.to_string()).collect();
                format!("Window({})", parts.join(", "))
            }
            RelOp::Union { all } => format!("Union(all={all})"),
            RelOp::Intersect { all } => format!("Intersect(all={all})"),
            RelOp::Minus { all } => format!("Minus(all={all})"),
            RelOp::Delta => "Delta".to_string(),
            RelOp::Convert { from } => format!("Convert(from={from})"),
        }
    }
}

impl fmt::Debug for RelOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.payload_digest())
    }
}

/// A node of the relational-operator tree. Immutable; shared via `Arc`.
pub struct RelNode {
    pub op: RelOp,
    pub convention: Convention,
    pub inputs: Vec<Rel>,
    row_type: OnceLock<RowType>,
    digest: OnceLock<String>,
}

/// Shared relational expression handle.
pub type Rel = Arc<RelNode>;

impl RelNode {
    pub fn new(op: RelOp, convention: Convention, inputs: Vec<Rel>) -> Rel {
        Arc::new(RelNode {
            op,
            convention,
            inputs,
            row_type: OnceLock::new(),
            digest: OnceLock::new(),
        })
    }

    /// A node in the logical convention.
    pub fn logical(op: RelOp, inputs: Vec<Rel>) -> Rel {
        RelNode::new(op, Convention::none(), inputs)
    }

    pub fn kind(&self) -> RelKind {
        self.op.kind()
    }

    pub fn input(&self, i: usize) -> &Rel {
        &self.inputs[i]
    }

    /// The output row type, derived once and cached.
    pub fn row_type(&self) -> &RowType {
        self.row_type
            .get_or_init(|| derive_row_type(&self.op, &self.inputs))
    }

    /// Rebuilds this node with new inputs (same op and convention).
    pub fn with_inputs(&self, inputs: Vec<Rel>) -> Rel {
        RelNode::new(self.op.clone(), self.convention.clone(), inputs)
    }

    /// Rebuilds this node in another convention.
    pub fn with_convention(&self, convention: Convention) -> Rel {
        RelNode::new(self.op.clone(), convention, self.inputs.clone())
    }

    /// Full recursive digest identifying this expression tree, built once
    /// per node and cached (the children's cached digests are reused, so a
    /// rewritten tree only prints its new nodes).
    pub fn digest(&self) -> &str {
        self.digest.get_or_init(|| {
            let mut s = format!("{}@{}", self.op.payload_digest(), self.convention);
            for (i, input) in self.inputs.iter().enumerate() {
                s.push(if i == 0 { '[' } else { '|' });
                s.push_str(input.digest());
            }
            if !self.inputs.is_empty() {
                s.push(']');
            }
            s
        })
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        1 + self.inputs.iter().map(|i| i.node_count()).sum::<usize>()
    }

    /// Visits every row expression carried by this plan tree (filter and
    /// join conditions, projection expressions), top-down. Used by the
    /// prepared-statement layer to discover dynamic parameters.
    pub fn visit_exprs(&self, f: &mut impl FnMut(&crate::rex::RexNode)) {
        match &self.op {
            RelOp::Filter { condition }
            | RelOp::Join { condition, .. }
            | RelOp::IndexJoin { condition, .. } => f(condition),
            RelOp::Project { exprs, .. } => {
                for e in exprs {
                    f(e);
                }
            }
            RelOp::IndexSeek { seek, .. } => {
                for e in seek.exprs() {
                    f(e);
                }
            }
            _ => {}
        }
        for i in &self.inputs {
            i.visit_exprs(f);
        }
    }
}

impl fmt::Debug for RelNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.digest())
    }
}

impl PartialEq for RelNode {
    fn eq(&self, other: &Self) -> bool {
        self.digest() == other.digest()
    }
}

fn derive_row_type(op: &RelOp, inputs: &[Rel]) -> RowType {
    match op {
        RelOp::Scan { table } => table.table.row_type(),
        RelOp::IndexSeek {
            table, projection, ..
        } => {
            let base = table.table.row_type();
            match projection {
                None => base,
                Some(cols) => RowType::new(cols.iter().map(|c| base.field(*c).clone()).collect()),
            }
        }
        RelOp::IndexJoin { kind, table, .. } => {
            let left = inputs[0].row_type();
            if !kind.projects_right() {
                return left.clone();
            }
            let right = table.table.row_type();
            let r = if kind.generates_nulls_on_right() {
                right.nullified()
            } else {
                right
            };
            left.join(&r)
        }
        RelOp::Values { row_type, .. } => row_type.clone(),
        RelOp::Filter { .. } | RelOp::Delta | RelOp::Convert { .. } => inputs[0].row_type().clone(),
        RelOp::Project { exprs, names } => RowType::new(
            exprs
                .iter()
                .zip(names.iter())
                .map(|(e, n)| Field::new(n.clone(), e.ty().clone()))
                .collect(),
        ),
        RelOp::Join { kind, .. } => {
            let left = inputs[0].row_type();
            if !kind.projects_right() {
                return left.clone();
            }
            let right = inputs[1].row_type();
            let l = if kind.generates_nulls_on_left() {
                left.nullified()
            } else {
                left.clone()
            };
            let r = if kind.generates_nulls_on_right() {
                right.nullified()
            } else {
                right.clone()
            };
            l.join(&r)
        }
        RelOp::Aggregate { group, aggs } => {
            let input = inputs[0].row_type();
            let mut fields: Vec<Field> = group.iter().map(|i| input.field(*i).clone()).collect();
            for a in aggs {
                fields.push(Field::new(a.name.clone(), a.ty.clone()));
            }
            RowType::new(fields)
        }
        RelOp::Sort { .. } => inputs[0].row_type().clone(),
        RelOp::Window { functions } => {
            let mut fields = inputs[0].row_type().fields.clone();
            for w in functions {
                fields.push(Field::new(w.name.clone(), w.ty.clone()));
            }
            RowType::new(fields)
        }
        RelOp::Union { .. } | RelOp::Intersect { .. } | RelOp::Minus { .. } => {
            inputs[0].row_type().clone()
        }
    }
}

// ---------------------------------------------------------------------
// Convenience constructors for logical nodes (used by rules and tests;
// the public entry point for applications is `RelBuilder`).
// ---------------------------------------------------------------------

pub fn scan(table: TableRef) -> Rel {
    RelNode::logical(RelOp::Scan { table }, vec![])
}

pub fn values(row_type: RowType, tuples: Vec<Row>) -> Rel {
    RelNode::logical(RelOp::Values { row_type, tuples }, vec![])
}

/// Filter; collapses to the input when the condition is literally TRUE.
pub fn filter(input: Rel, condition: RexNode) -> Rel {
    if condition.is_always_true() {
        return input;
    }
    RelNode::logical(RelOp::Filter { condition }, vec![input])
}

pub fn project(input: Rel, exprs: Vec<RexNode>, names: Vec<String>) -> Rel {
    RelNode::logical(RelOp::Project { exprs, names }, vec![input])
}

pub fn join(left: Rel, right: Rel, kind: JoinKind, condition: RexNode) -> Rel {
    RelNode::logical(RelOp::Join { kind, condition }, vec![left, right])
}

pub fn index_seek(
    table: TableRef,
    index: IndexDef,
    seek: SeekSpec,
    projection: Option<Vec<usize>>,
) -> Rel {
    RelNode::logical(
        RelOp::IndexSeek {
            table,
            index,
            seek,
            projection,
        },
        vec![],
    )
}

pub fn index_join(
    left: Rel,
    table: TableRef,
    index: IndexDef,
    kind: JoinKind,
    condition: RexNode,
    left_keys: Vec<usize>,
) -> Rel {
    RelNode::logical(
        RelOp::IndexJoin {
            kind,
            condition,
            table,
            index,
            left_keys,
        },
        vec![left],
    )
}

pub fn aggregate(input: Rel, group: Vec<usize>, aggs: Vec<AggCall>) -> Rel {
    RelNode::logical(RelOp::Aggregate { group, aggs }, vec![input])
}

pub fn sort(input: Rel, collation: Collation) -> Rel {
    RelNode::logical(
        RelOp::Sort {
            collation,
            offset: None,
            fetch: None,
        },
        vec![input],
    )
}

pub fn sort_limit(
    input: Rel,
    collation: Collation,
    offset: Option<usize>,
    fetch: Option<usize>,
) -> Rel {
    RelNode::logical(
        RelOp::Sort {
            collation,
            offset,
            fetch,
        },
        vec![input],
    )
}

pub fn window(input: Rel, functions: Vec<WindowFn>) -> Rel {
    RelNode::logical(RelOp::Window { functions }, vec![input])
}

pub fn union(inputs: Vec<Rel>, all: bool) -> Rel {
    RelNode::logical(RelOp::Union { all }, inputs)
}

pub fn intersect(inputs: Vec<Rel>, all: bool) -> Rel {
    RelNode::logical(RelOp::Intersect { all }, inputs)
}

pub fn minus(inputs: Vec<Rel>, all: bool) -> Rel {
    RelNode::logical(RelOp::Minus { all }, inputs)
}

pub fn delta(input: Rel) -> Rel {
    RelNode::logical(RelOp::Delta, vec![input])
}

/// A Values node producing a single empty row: the input of a SELECT with
/// no FROM clause.
pub fn one_row() -> Rel {
    values(RowType::empty(), vec![vec![]])
}

/// A Values node producing no rows with the given type (result of pruning).
pub fn empty(row_type: RowType) -> Rel {
    values(row_type, vec![])
}

/// Literal helper for tests/benches.
pub fn int_row(vals: &[i64]) -> Row {
    vals.iter().map(|v| Datum::Int(*v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::MemTable;
    use crate::types::{RowTypeBuilder, TypeKind};

    fn emp_ref() -> TableRef {
        let t = MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("deptno", TypeKind::Integer)
                .add("sal", TypeKind::Double)
                .build(),
            vec![],
        );
        TableRef::new("hr", "emp", t)
    }

    #[test]
    fn scan_row_type_comes_from_table() {
        let s = scan(emp_ref());
        assert_eq!(s.row_type().arity(), 2);
        assert_eq!(s.row_type().field(0).name, "deptno");
    }

    #[test]
    fn filter_preserves_row_type() {
        let s = scan(emp_ref());
        let f = filter(
            s.clone(),
            RexNode::input(0, RelType::not_null(TypeKind::Integer)).gt(RexNode::lit_int(5)),
        );
        assert_eq!(f.row_type(), s.row_type());
        assert_eq!(f.kind(), RelKind::Filter);
    }

    #[test]
    fn trivially_true_filter_collapses() {
        let s = scan(emp_ref());
        let f = filter(s.clone(), RexNode::true_lit());
        assert_eq!(f.digest(), s.digest());
    }

    #[test]
    fn join_row_type_concatenation_and_nullification() {
        let l = scan(emp_ref());
        let r = scan(emp_ref());
        let j = join(l.clone(), r.clone(), JoinKind::Left, RexNode::true_lit());
        assert_eq!(j.row_type().arity(), 4);
        // Left join nullifies the right side.
        assert!(j.row_type().field(2).ty.nullable || j.row_type().field(3).ty.nullable);
        let semi = join(l, r, JoinKind::Semi, RexNode::true_lit());
        assert_eq!(semi.row_type().arity(), 2);
    }

    #[test]
    fn aggregate_row_type() {
        let s = scan(emp_ref());
        let agg = aggregate(
            s.clone(),
            vec![0],
            vec![
                AggCall::count_star("c"),
                AggCall::new(AggFunc::Sum, vec![1], false, "s", s.row_type()),
            ],
        );
        let rt = agg.row_type();
        assert_eq!(rt.arity(), 3);
        assert_eq!(rt.field(0).name, "deptno");
        assert_eq!(rt.field(1).name, "c");
        assert_eq!(rt.field(1).ty.kind, TypeKind::Integer);
        assert_eq!(rt.field(2).ty.kind, TypeKind::Double);
    }

    #[test]
    fn digest_distinguishes_convention() {
        let s = scan(emp_ref());
        let phys = s.with_convention(Convention::enumerable());
        assert_ne!(s.digest(), phys.digest());
        assert!(s.digest().contains("@logical"));
        assert!(phys.digest().contains("@enumerable"));
    }

    #[test]
    fn digest_identical_for_equal_trees() {
        let a = filter(
            scan(emp_ref()),
            RexNode::input(0, RelType::not_null(TypeKind::Integer)).gt(RexNode::lit_int(5)),
        );
        let b = filter(
            scan(emp_ref()),
            RexNode::input(0, RelType::not_null(TypeKind::Integer)).gt(RexNode::lit_int(5)),
        );
        assert_eq!(a.digest(), b.digest());
        assert_eq!(&*a, &*b);
    }

    #[test]
    fn node_count() {
        let s = scan(emp_ref());
        let f = filter(
            s,
            RexNode::input(0, RelType::not_null(TypeKind::Integer)).gt(RexNode::lit_int(5)),
        );
        let p = project(f, vec![RexNode::lit_int(1)], vec!["one".into()]);
        assert_eq!(p.node_count(), 3);
    }

    #[test]
    fn project_row_type_uses_names_and_types() {
        let s = scan(emp_ref());
        let p = project(
            s,
            vec![RexNode::input(1, RelType::nullable(TypeKind::Double))],
            vec!["salary".into()],
        );
        assert_eq!(p.row_type().field(0).name, "salary");
        assert_eq!(p.row_type().field(0).ty.kind, TypeKind::Double);
    }

    #[test]
    fn one_row_and_empty() {
        assert_eq!(one_row().row_type().arity(), 0);
        match &one_row().op {
            RelOp::Values { tuples, .. } => assert_eq!(tuples.len(), 1),
            _ => panic!(),
        }
        let e = empty(RowTypeBuilder::new().add("x", TypeKind::Integer).build());
        match &e.op {
            RelOp::Values { tuples, .. } => assert!(tuples.is_empty()),
            _ => panic!(),
        }
    }

    #[test]
    fn window_row_type_appends_functions() {
        let s = scan(emp_ref());
        let w = window(
            s,
            vec![WindowFn {
                func: WinFunc::Agg(AggFunc::Sum),
                args: vec![1],
                partition: vec![0],
                order: vec![],
                frame: WindowFrame::default_frame(),
                name: "running".into(),
                ty: RelType::nullable(TypeKind::Double),
            }],
        );
        assert_eq!(w.row_type().arity(), 3);
        assert_eq!(w.row_type().field(2).name, "running");
    }
}
