//! # rcalcite-adapters
//!
//! The adapter architecture of paper §5: "an adapter consists of a model,
//! a schema, and a schema factory" (see [`framework`]), plus rules that
//! push operators into the backend. An adapter implements one trait,
//! [`Pushdown`], with the two parts that differ between backends — what
//! the backend can take, and the text of its target language:
//!
//! - its convention and its schema;
//! - the patterns of the operators it may take, and `accepts`, which
//!   says whether the backend takes one match of them;
//! - `run`, which folds a subtree in its convention into one native
//!   query, records the query's text in the adapter's [`QueryLog`] and
//!   runs it;
//! - optionally `cost`, for an operator the backend runs cheaper than
//!   the default cost model assumes.
//!
//! | Adapter | Backend | Target language (Table 2) |
//! |---------|---------|---------------------------|
//! | [`jdbc`] | `memdb` | SQL (PostgreSQL / MySQL dialects) |
//! | [`cassandra`] | `kvwide` | CQL |
//! | [`mongo`] | `docstore` | JSON find |
//! | [`splunk`] | `logstore` | SPL (with `lookup` joins — Figure 2) |
//!
//! Everything else is shared: one [`PushdownRule`] per pattern (plus the
//! scan every adapter takes), one executor, one metadata provider, one
//! [`SchemaFactory`] impl and [`Pushdown::install`], which registers them
//! and the convention's converter edge into a `Connection`. The
//! cost-based planner then freely mixes conventions in one plan, pushing
//! "all possible logic to each backend and then performing joins and
//! aggregations on the resulting data".

pub mod cassandra;
pub mod demo;
pub mod framework;
pub mod helpers;
pub mod jdbc;
pub mod mongo;
pub mod splunk;

pub use framework::{load_model, FactoryRegistry, SchemaFactory};
pub use helpers::QueryLog;

use rcalcite_core::catalog::Schema;
use rcalcite_core::cost::Cost;
use rcalcite_core::datum::Row;
use rcalcite_core::error::Result;
use rcalcite_core::exec::{BatchOp, ConventionExecutor, ExecContext, RowsOp};
use rcalcite_core::metadata::{MetadataProvider, MetadataQuery};
use rcalcite_core::rel::{Rel, RelKind, RelOp};
use rcalcite_core::rules::{Children, NodeMatcher, Pattern, Rule, RuleCall};
use rcalcite_core::traits::Convention;
use std::sync::Arc;

/// What an adapter says about its backend; the rules, the executor, the
/// metadata provider and the installation are built from it.
pub trait Pushdown: Send + Sync + Sized + 'static {
    /// Factory name models refer to (`"factory": "<name>"`).
    const FACTORY: &'static str;

    fn convention(&self) -> &Convention;

    /// The backend's tables, each scanned in [`Pushdown::convention`].
    fn schema(&self) -> Schema;

    /// Patterns of the logical operators the backend may take. Each root
    /// binds its first input, which must already be in the adapter's
    /// convention. The scan of one of the adapter's tables — "the minimal
    /// interface that an adapter must implement" (§5) — is always taken
    /// and is not listed.
    fn patterns(&self) -> Vec<Pattern>;

    /// Whether the backend takes one binding of a pattern: the matched
    /// nodes in pre-order, a logical root over an input in this
    /// convention.
    fn accepts(&self, rels: &[Rel]) -> bool;

    /// Runs a subtree in this convention: builds the native query,
    /// records its text in the adapter's log and runs it.
    fn run(&self, rel: &Rel, ctx: &ExecContext) -> Result<Vec<Row>>;

    /// Non-cumulative cost of an operator in this convention, where the
    /// backend runs it cheaper than the default model assumes (§6:
    /// systems "may choose to write providers that override the existing
    /// functions").
    fn cost(&self, _rel: &Rel, _mq: &MetadataQuery) -> Option<Cost> {
        None
    }

    /// The adapter's planner rules (§5: "The adapter may define a set of
    /// rules that are added to the planner"): the scan, then one per
    /// pattern.
    fn rules(self: &Arc<Self>) -> Vec<Arc<dyn Rule>> {
        std::iter::once(Pattern::of(RelKind::Scan))
            .chain(self.patterns())
            .map(|pattern| {
                Arc::new(PushdownRule {
                    name: format!(
                        "PushdownRule({}, {})",
                        self.convention(),
                        describe(&pattern)
                    ),
                    adapter: self.clone(),
                    pattern,
                }) as Arc<dyn Rule>
            })
            .collect()
    }

    fn executor(self: &Arc<Self>) -> Arc<dyn ConventionExecutor> {
        Arc::new(Backend(self.clone()))
    }

    /// Installs the rules, the converter to `enumerable`, the executor and
    /// the cost provider into a connection.
    fn install(self: &Arc<Self>, conn: &mut rcalcite_sql::Connection) {
        for r in self.rules() {
            conn.add_rule(r);
        }
        conn.add_converter(self.convention().clone(), Convention::enumerable());
        conn.register_executor(self.executor());
        conn.add_metadata_provider(Arc::new(Backend(self.clone())));
    }
}

/// Converts a logical operator into the adapter's convention when the
/// backend takes it: a scan of one of the adapter's tables, or a pattern
/// match over an input already in the convention that
/// [`Pushdown::accepts`].
pub struct PushdownRule<P> {
    adapter: Arc<P>,
    pattern: Pattern,
    name: String,
}

impl<P: Pushdown> Rule for PushdownRule<P> {
    fn name(&self) -> &str {
        &self.name
    }

    fn pattern(&self) -> Pattern {
        self.pattern.clone()
    }

    fn on_match(&self, call: &mut RuleCall) {
        let rels = call.rels();
        let (root, conv) = (&rels[0], self.adapter.convention());
        if !root.convention.is_none() {
            return;
        }
        let taken = match rels.get(1) {
            Some(input) => input.convention == *conv && self.adapter.accepts(rels),
            None => matches!(&root.op, RelOp::Scan { table } if table.table.convention() == *conv),
        };
        if taken {
            // Both engines hand over a root built over its bound children,
            // so the converted node keeps the inputs it was matched with.
            let pushed = root.with_convention(conv.clone());
            call.transform_to(pushed);
        }
    }
}

/// A rule pattern as text, for rule names: `Sort(Filter(Scan))`.
fn describe(p: &Pattern) -> String {
    let node = match &p.matcher {
        NodeMatcher::Any => "_".to_string(),
        NodeMatcher::Kind(k) | NodeMatcher::KindConv(k, _) => format!("{k:?}"),
    };
    match &p.children {
        Children::Any => node,
        Children::Are(children) => {
            let children: Vec<String> = children.iter().map(describe).collect();
            format!("{node}({})", children.join(", "))
        }
    }
}

/// The adapter as the executor registry and the metadata see it.
struct Backend<P>(Arc<P>);

impl<P: Pushdown> ConventionExecutor for Backend<P> {
    fn convention(&self) -> Convention {
        self.0.convention().clone()
    }

    fn execute(&self, rel: &Rel, ctx: &ExecContext) -> Result<BatchOp> {
        let rows = self.0.run(rel, ctx)?;
        Ok(Box::new(RowsOp::new(rows, rel.row_type().kinds())))
    }
}

impl<P: Pushdown> MetadataProvider for Backend<P> {
    fn non_cumulative_cost(&self, rel: &Rel, mq: &MetadataQuery) -> Option<Cost> {
        if rel.convention == *self.0.convention() {
            self.0.cost(rel, mq)
        } else {
            None
        }
    }
}
