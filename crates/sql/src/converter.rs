//! SQL-to-relational-algebra conversion (the "relational expression" arrow
//! of Figure 1). Validation — name resolution, type checking, aggregate
//! placement, streaming monotonicity — happens during conversion; the
//! output is a logical plan ready for the optimizer.

use crate::ast::*;
use crate::validator::{check_stream_aggregate, Scope};
use rcalcite_core::catalog::Catalog;
use rcalcite_core::datum::{parse_date, parse_timestamp, Datum};
use rcalcite_core::error::{CalciteError, Result};
use rcalcite_core::rel::{
    self, AggCall, AggFunc, FrameBound, JoinKind, Rel, WinFunc, WindowFn, WindowFrame,
};
use rcalcite_core::rex::{BuiltinFn, FunctionRegistry, Op, RexNode};
use rcalcite_core::traits::{Collation, FieldCollation};
use rcalcite_core::types::{Field, RelType, RowType, TypeKind};

pub struct Converter<'a> {
    catalog: &'a Catalog,
    functions: &'a FunctionRegistry,
    /// Named views (lowercase name -> defining plan), expanded inline
    /// during conversion as Calcite does.
    views: &'a std::collections::HashMap<String, Rel>,
}

/// Converts a parsed query into a logical plan.
pub fn query_to_rel(catalog: &Catalog, functions: &FunctionRegistry, query: &Query) -> Result<Rel> {
    static NO_VIEWS: std::sync::OnceLock<std::collections::HashMap<String, Rel>> =
        std::sync::OnceLock::new();
    let views = NO_VIEWS.get_or_init(std::collections::HashMap::new);
    Converter {
        catalog,
        functions,
        views,
    }
    .convert_query(query)
}

/// Converts a query with a set of named views in scope.
pub fn query_to_rel_with_views(
    catalog: &Catalog,
    functions: &FunctionRegistry,
    views: &std::collections::HashMap<String, Rel>,
    query: &Query,
) -> Result<Rel> {
    Converter {
        catalog,
        functions,
        views,
    }
    .convert_query(query)
}

/// Aggregate call collected from the select list / HAVING.
struct AggInfo {
    func: AggFunc,
    distinct: bool,
    /// Argument expression over the pre-aggregation scope; None = COUNT(*).
    arg: Option<RexNode>,
    /// Canonical key for deduplication.
    key: String,
}

impl<'a> Converter<'a> {
    fn convert_query(&self, query: &Query) -> Result<Rel> {
        // Plain SELECT bodies handle ORDER BY internally so sort keys may
        // reference non-projected columns (hidden sort columns).
        if let SetExpr::Select(s) = &query.body {
            return self.convert_select(
                s,
                &query.order_by,
                query.offset.map(|o| o as usize),
                query.limit.map(|l| l as usize),
            );
        }
        let (mut rel_, output_asts) = self.convert_set_expr(&query.body)?;
        if !query.order_by.is_empty() || query.limit.is_some() || query.offset.is_some() {
            let mut collation: Collation = vec![];
            let out_scope = Scope::from_rel(None, &rel_);
            for item in &query.order_by {
                let idx = self.resolve_order_key(&item.expr, &out_scope, &output_asts)?;
                collation.push(if item.desc {
                    FieldCollation::desc(idx)
                } else {
                    FieldCollation::asc(idx)
                });
            }
            rel_ = rel::sort_limit(
                rel_,
                collation,
                query.offset.map(|o| o as usize),
                query.limit.map(|l| l as usize),
            );
        }
        Ok(rel_)
    }

    /// Resolves an ORDER BY key to an output column: by name, by position
    /// (`ORDER BY 2`), or by structural equality with a select item
    /// (`ORDER BY COUNT(*)`).
    fn resolve_order_key(
        &self,
        expr: &Expr,
        out_scope: &Scope,
        output_asts: &[Option<Expr>],
    ) -> Result<usize> {
        if let Expr::Literal(Lit::Int(n)) = expr {
            let i = *n as usize;
            if i >= 1 && i <= out_scope.arity() {
                return Ok(i - 1);
            }
            return Err(CalciteError::validate(format!(
                "ORDER BY position {n} out of range"
            )));
        }
        if let Expr::Ident(parts) = expr {
            if let Ok((i, _)) = out_scope.resolve(parts) {
                return Ok(i);
            }
        }
        for (i, ast) in output_asts.iter().enumerate() {
            if ast.as_ref() == Some(expr) {
                return Ok(i);
            }
        }
        Err(CalciteError::validate(format!(
            "ORDER BY expression {expr:?} is not in the select list"
        )))
    }

    /// Returns the plan plus, when the body is a plain SELECT, the AST of
    /// each output column (for ORDER BY matching).
    fn convert_set_expr(&self, body: &SetExpr) -> Result<(Rel, Vec<Option<Expr>>)> {
        match body {
            SetExpr::Select(s) => Ok((self.convert_select(s, &[], None, None)?, vec![])),
            SetExpr::SetOp {
                op,
                all,
                left,
                right,
            } => {
                let (l, _) = self.convert_set_expr(left)?;
                let (r, _) = self.convert_set_expr(right)?;
                if l.row_type().arity() != r.row_type().arity() {
                    return Err(CalciteError::validate(format!(
                        "set operation inputs differ in arity: {} vs {}",
                        l.row_type().arity(),
                        r.row_type().arity()
                    )));
                }
                let node = match op {
                    SetOpKind::Union => rel::union(vec![l, r], *all),
                    SetOpKind::Intersect => rel::intersect(vec![l, r], *all),
                    SetOpKind::Except => rel::minus(vec![l, r], *all),
                };
                Ok((node, vec![]))
            }
            SetExpr::Values(rows) => {
                let empty = Scope::empty();
                let mut tuples = vec![];
                let mut row_type: Option<RowType> = None;
                for row in rows {
                    let mut datums = vec![];
                    let mut fields = vec![];
                    for (i, e) in row.iter().enumerate() {
                        let rex = self.to_rex(e, &empty)?;
                        if !rex.is_constant() {
                            return Err(CalciteError::validate(
                                "VALUES rows must be constant expressions",
                            ));
                        }
                        let v = rex
                            .eval(&[])
                            .map_err(|e| CalciteError::validate(e.to_string()))?;
                        fields.push(Field::new(format!("EXPR${i}"), rex.ty().clone()));
                        datums.push(v);
                    }
                    match &row_type {
                        None => row_type = Some(RowType::new(fields)),
                        Some(rt) => {
                            if rt.arity() != datums.len() {
                                return Err(CalciteError::validate("VALUES rows differ in arity"));
                            }
                        }
                    }
                    tuples.push(datums);
                }
                let rt = row_type
                    .ok_or_else(|| CalciteError::validate("VALUES requires at least one row"))?;
                Ok((rel::values(rt, tuples), vec![]))
            }
        }
    }

    fn convert_select(
        &self,
        s: &Select,
        order_by: &[OrderItem],
        offset: Option<usize>,
        fetch: Option<usize>,
    ) -> Result<Rel> {
        // FROM.
        let (mut rel_, scope) = match &s.from {
            Some(te) => self.convert_table_expr(te)?,
            None => (rel::one_row(), Scope::empty()),
        };

        // STREAM validation: the query must read at least one stream.
        if s.stream {
            let has_stream = s
                .from
                .as_ref()
                .map(|te| table_expr_has_stream(te, self.catalog))
                .unwrap_or(false);
            if !has_stream {
                return Err(CalciteError::validate(
                    "SELECT STREAM requires a stream in the FROM clause",
                ));
            }
        }

        // WHERE.
        if let Some(w) = &s.selection {
            if contains_agg(w) {
                return Err(CalciteError::validate(
                    "aggregate functions are not allowed in WHERE",
                ));
            }
            let cond = self.to_rex(w, &scope)?;
            require_boolean(&cond, "WHERE")?;
            rel_ = rel::filter(rel_, cond);
        }

        let has_agg = !s.group_by.is_empty()
            || s.items.iter().any(|i| match i {
                SelectItem::Expr { expr, .. } => contains_agg(expr),
                _ => false,
            })
            || s.having.as_ref().map(contains_agg).unwrap_or(false);

        let out = if has_agg {
            self.convert_aggregate_select(s, rel_, &scope, order_by)?
        } else {
            if s.having.is_some() {
                return Err(CalciteError::validate("HAVING requires GROUP BY"));
            }
            self.convert_plain_select(s, rel_, &scope, order_by)?
        };

        let hidden = out.rel.row_type().arity() - out.n_visible;
        let mut rel_ = out.rel;
        // DISTINCT = group by all output columns (incompatible with
        // hidden sort keys, as in standard SQL).
        if s.distinct {
            if hidden > 0 {
                return Err(CalciteError::validate(
                    "with SELECT DISTINCT, ORDER BY expressions must appear in the select list",
                ));
            }
            let n = rel_.row_type().arity();
            rel_ = rel::aggregate(rel_, (0..n).collect(), vec![]);
        }
        // STREAM = delta.
        if s.stream {
            rel_ = rel::delta(rel_);
        }
        // ORDER BY / LIMIT, then strip hidden sort columns.
        if !out.collation.is_empty() || offset.is_some() || fetch.is_some() {
            rel_ = rel::sort_limit(rel_, out.collation, offset, fetch);
        }
        if hidden > 0 {
            let rt = rel_.row_type().clone();
            let exprs: Vec<RexNode> = (0..out.n_visible)
                .map(|i| RexNode::input(i, rt.field(i).ty.clone()))
                .collect();
            let names = rt.fields[..out.n_visible]
                .iter()
                .map(|f| f.name.clone())
                .collect();
            rel_ = rel::project(rel_, exprs, names);
        }
        Ok(rel_)
    }

    /// Resolves ORDER BY items against the projection being built,
    /// appending hidden sort columns when a key is not in the select list.
    /// `fallback` converts an order expression over the projection input.
    #[allow(clippy::too_many_arguments)]
    fn resolve_order_items(
        &self,
        order_by: &[OrderItem],
        exprs: &mut Vec<RexNode>,
        names: &mut Vec<String>,
        asts: &[Option<Expr>],
        n_visible: usize,
        fallback: &dyn Fn(&Expr) -> Result<RexNode>,
    ) -> Result<Collation> {
        let mut collation: Collation = vec![];
        for item in order_by {
            let mut idx: Option<usize> = None;
            // Structural match with a select item.
            for (i, ast) in asts.iter().enumerate() {
                if ast.as_ref() == Some(&item.expr) {
                    idx = Some(i);
                    break;
                }
            }
            // Output-name match.
            if idx.is_none() {
                if let Expr::Ident(parts) = &item.expr {
                    if parts.len() == 1 {
                        idx = names[..n_visible]
                            .iter()
                            .position(|n| n.eq_ignore_ascii_case(&parts[0]));
                    }
                }
            }
            // Positional (`ORDER BY 2`).
            if idx.is_none() {
                if let Expr::Literal(Lit::Int(n)) = &item.expr {
                    let i = *n as usize;
                    if i >= 1 && i <= n_visible {
                        idx = Some(i - 1);
                    } else {
                        return Err(CalciteError::validate(format!(
                            "ORDER BY position {n} out of range"
                        )));
                    }
                }
            }
            // Expression over the underlying input: reuse an identical
            // projected expression or append a hidden column.
            let idx = match idx {
                Some(i) => i,
                None => {
                    let rex = fallback(&item.expr)?;
                    match exprs.iter().position(|e| e.digest() == rex.digest()) {
                        Some(i) => i,
                        None => {
                            exprs.push(rex);
                            names.push(format!("$sort{}", exprs.len()));
                            exprs.len() - 1
                        }
                    }
                }
            };
            collation.push(if item.desc {
                FieldCollation::desc(idx)
            } else {
                FieldCollation::asc(idx)
            });
        }
        Ok(collation)
    }

    /// SELECT without aggregation (may contain window functions).
    fn convert_plain_select(
        &self,
        s: &Select,
        mut rel_: Rel,
        scope: &Scope,
        order_by: &[OrderItem],
    ) -> Result<SelectOutput> {
        // Collect windowed calls from the select list.
        let mut windows: Vec<(Expr, usize)> = vec![]; // (ast, appended index)
        let mut wfs: Vec<WindowFn> = vec![];
        for item in &s.items {
            if let SelectItem::Expr { expr, .. } = item {
                self.collect_windows(expr, scope, &mut windows, &mut wfs)?;
            }
        }
        let base_arity = scope.arity();
        if !wfs.is_empty() {
            rel_ = rel::window(rel_, wfs);
        }

        // Projection.
        let mut exprs = vec![];
        let mut names = vec![];
        let mut asts: Vec<Option<Expr>> = vec![];
        for (i, item) in s.items.iter().enumerate() {
            match item {
                SelectItem::Wildcard => {
                    for (ci, c) in scope.cols.iter().enumerate() {
                        exprs.push(RexNode::input(ci, c.ty.clone()));
                        names.push(c.name.clone());
                        asts.push(None);
                    }
                }
                SelectItem::QualifiedWildcard(alias) => {
                    let cols = scope.columns_of(alias);
                    if cols.is_empty() {
                        return Err(CalciteError::validate(format!(
                            "unknown table alias '{alias}' in {alias}.*"
                        )));
                    }
                    for ci in cols {
                        exprs.push(RexNode::input(ci, scope.cols[ci].ty.clone()));
                        names.push(scope.cols[ci].name.clone());
                        asts.push(None);
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let rex = self.to_rex_with_windows(expr, scope, &windows, base_arity, &rel_)?;
                    names.push(derive_name(alias.as_deref(), expr, i));
                    exprs.push(rex);
                    asts.push(Some(expr.clone()));
                }
            }
        }
        let n_visible = exprs.len();
        let collation =
            self.resolve_order_items(order_by, &mut exprs, &mut names, &asts, n_visible, &|e| {
                self.to_rex_with_windows(e, scope, &windows, base_arity, &rel_)
            })?;
        // `SELECT *` with nothing else: skip the identity projection.
        if s.items.len() == 1
            && matches!(s.items[0], SelectItem::Wildcard)
            && base_arity == rel_.row_type().arity()
            && exprs.len() == n_visible
        {
            return Ok(SelectOutput {
                n_visible: rel_.row_type().arity(),
                rel: rel_,
                collation,
            });
        }
        Ok(SelectOutput {
            rel: rel::project(rel_, exprs, names),
            n_visible,
            collation,
        })
    }

    /// SELECT with GROUP BY / aggregates.
    fn convert_aggregate_select(
        &self,
        s: &Select,
        input: Rel,
        scope: &Scope,
        order_by: &[OrderItem],
    ) -> Result<SelectOutput> {
        // 1. Group expressions (TUMBLE desugars to window-start
        //    arithmetic).
        let mut group_rex: Vec<RexNode> = vec![];
        let mut tumble_info: Vec<Option<i64>> = vec![]; // interval per group key
        for g in &s.group_by {
            if let Expr::Func { name, args, .. } = g {
                if name.eq_ignore_ascii_case("TUMBLE") {
                    if args.len() != 2 {
                        return Err(CalciteError::validate("TUMBLE takes (timestamp, interval)"));
                    }
                    let ts = self.to_rex(&args[0], scope)?;
                    let iv = self.to_rex(&args[1], scope)?;
                    let ms = interval_millis(&iv)?;
                    group_rex.push(tumble_start(ts, ms));
                    tumble_info.push(Some(ms));
                    continue;
                }
            }
            let rex = self.to_rex(g, scope)?;
            group_rex.push(rex);
            tumble_info.push(None);
        }

        // 2. Aggregate calls from select list and HAVING.
        let mut aggs: Vec<AggInfo> = vec![];
        for item in &s.items {
            if let SelectItem::Expr { expr, .. } = item {
                self.collect_aggs(expr, scope, &mut aggs)?;
            } else {
                return Err(CalciteError::validate(
                    "SELECT * is not valid with GROUP BY",
                ));
            }
        }
        if let Some(h) = &s.having {
            self.collect_aggs(h, scope, &mut aggs)?;
        }
        for o in order_by {
            self.collect_aggs(&o.expr, scope, &mut aggs)?;
        }

        // 3. Pre-projection: group expressions then aggregate arguments.
        let mut pre_exprs: Vec<RexNode> = group_rex.clone();
        let mut pre_names: Vec<String> = (0..group_rex.len()).map(|i| format!("g${i}")).collect();
        let mut agg_calls: Vec<AggCall> = vec![];
        for (i, a) in aggs.iter().enumerate() {
            let args = match &a.arg {
                None => vec![],
                Some(rex) => {
                    // Reuse an identical pre-projection column when
                    // possible.
                    let pos = pre_exprs
                        .iter()
                        .position(|e| e.digest() == rex.digest())
                        .unwrap_or_else(|| {
                            pre_exprs.push(rex.clone());
                            pre_names.push(format!("a${i}"));
                            pre_exprs.len() - 1
                        });
                    vec![pos]
                }
            };
            let arg_ty = args.first().map(|p| pre_exprs[*p].ty().clone());
            agg_calls.push(AggCall {
                ty: a.func.ret_type(arg_ty.as_ref()),
                func: a.func,
                args,
                distinct: a.distinct,
                name: format!("agg${i}"),
            });
        }
        let pre = rel::project(input, pre_exprs, pre_names);
        let agg_node = rel::aggregate(pre, (0..group_rex.len()).collect(), agg_calls.clone());
        if s.stream {
            check_stream_aggregate(&agg_node)?;
        }

        // 4. Post-aggregation rewriting context.
        let post = PostAggCtx {
            group_rex: &group_rex,
            tumble_info: &tumble_info,
            aggs: &aggs,
            agg_out_offset: group_rex.len(),
            agg_node: &agg_node,
        };

        let mut rel_ = agg_node.clone();
        if let Some(h) = &s.having {
            let cond = self.rewrite_post_agg(h, scope, &post)?;
            require_boolean(&cond, "HAVING")?;
            rel_ = rel::filter(rel_, cond);
        }

        // 5. Output projection.
        let mut exprs = vec![];
        let mut names = vec![];
        let mut asts = vec![];
        for (i, item) in s.items.iter().enumerate() {
            if let SelectItem::Expr { expr, alias } = item {
                let rex = self.rewrite_post_agg(expr, scope, &post)?;
                names.push(derive_name(alias.as_deref(), expr, i));
                exprs.push(rex);
                asts.push(Some(expr.clone()));
            }
        }
        let n_visible = exprs.len();
        let collation =
            self.resolve_order_items(order_by, &mut exprs, &mut names, &asts, n_visible, &|e| {
                self.rewrite_post_agg(e, scope, &post)
            })?;
        Ok(SelectOutput {
            rel: rel::project(rel_, exprs, names),
            n_visible,
            collation,
        })
    }

    /// Collects aggregate calls (deduplicated) from an expression.
    fn collect_aggs(&self, e: &Expr, scope: &Scope, out: &mut Vec<AggInfo>) -> Result<()> {
        match e {
            Expr::Func {
                name,
                args,
                distinct,
                star,
                over: None,
            } => {
                if let Some(func) = AggFunc::by_name(name) {
                    let arg = if *star || args.is_empty() {
                        if func != AggFunc::Count {
                            return Err(CalciteError::validate(format!(
                                "{name} requires an argument"
                            )));
                        }
                        None
                    } else {
                        if args.len() != 1 {
                            return Err(CalciteError::validate(format!(
                                "{name} takes exactly one argument"
                            )));
                        }
                        if contains_agg(&args[0]) {
                            return Err(CalciteError::validate("aggregate calls cannot be nested"));
                        }
                        Some(self.to_rex(&args[0], scope)?)
                    };
                    let key = format!(
                        "{}:{}:{}",
                        func.name(),
                        distinct,
                        arg.as_ref().map(|a| a.digest()).unwrap_or_default()
                    );
                    if !out.iter().any(|a| a.key == key) {
                        out.push(AggInfo {
                            func,
                            distinct: *distinct,
                            arg,
                            key,
                        });
                    }
                    return Ok(());
                }
                for a in args {
                    self.collect_aggs(a, scope, out)?;
                }
                Ok(())
            }
            _ => {
                for child in expr_children(e) {
                    self.collect_aggs(child, scope, out)?;
                }
                Ok(())
            }
        }
    }

    /// Rewrites a select/HAVING expression over the aggregate's output.
    fn rewrite_post_agg(&self, e: &Expr, scope: &Scope, post: &PostAggCtx) -> Result<RexNode> {
        // Whole expression equals a group expression?
        if let Ok(rex) = self.to_rex(e, scope) {
            for (i, g) in post.group_rex.iter().enumerate() {
                if g.digest() == rex.digest() {
                    return Ok(RexNode::input(
                        i,
                        post.agg_node.row_type().field(i).ty.clone(),
                    ));
                }
            }
        }
        match e {
            // TUMBLE_END(ts, interval) = matching TUMBLE group key + size;
            // TUMBLE_START = the key itself.
            Expr::Func { name, args, .. }
                if name.eq_ignore_ascii_case("TUMBLE_END")
                    || name.eq_ignore_ascii_case("TUMBLE_START") =>
            {
                if args.len() != 2 {
                    return Err(CalciteError::validate(format!(
                        "{name} takes (timestamp, interval)"
                    )));
                }
                let ts = self.to_rex(&args[0], scope)?;
                let iv = self.to_rex(&args[1], scope)?;
                let ms = interval_millis(&iv)?;
                let target = tumble_start(ts, ms).digest();
                for (i, g) in post.group_rex.iter().enumerate() {
                    if post.tumble_info[i] == Some(ms) && g.digest() == target {
                        let key = RexNode::input(i, post.agg_node.row_type().field(i).ty.clone());
                        return Ok(if name.eq_ignore_ascii_case("TUMBLE_END") {
                            RexNode::call_typed(
                                Op::Plus,
                                vec![
                                    key,
                                    RexNode::literal(
                                        Datum::Interval(ms),
                                        RelType::not_null(TypeKind::Interval),
                                    ),
                                ],
                                RelType::not_null(TypeKind::Timestamp),
                            )
                        } else {
                            key
                        });
                    }
                }
                Err(CalciteError::validate(format!(
                    "{name} does not match any TUMBLE in GROUP BY"
                )))
            }
            Expr::Func {
                name,
                args,
                distinct,
                star,
                over: None,
            } if AggFunc::by_name(name).is_some() => {
                let func = AggFunc::by_name(name).unwrap();
                let arg = if *star || args.is_empty() {
                    None
                } else {
                    Some(self.to_rex(&args[0], scope)?)
                };
                let key = format!(
                    "{}:{}:{}",
                    func.name(),
                    distinct,
                    arg.as_ref().map(|a| a.digest()).unwrap_or_default()
                );
                let idx = post
                    .aggs
                    .iter()
                    .position(|a| a.key == key)
                    .ok_or_else(|| CalciteError::internal("aggregate not collected"))?;
                let out = post.agg_out_offset + idx;
                Ok(RexNode::input(
                    out,
                    post.agg_node.row_type().field(out).ty.clone(),
                ))
            }
            Expr::Literal(_) | Expr::Param(_) => self.to_rex(e, scope),
            Expr::Ident(parts) => Err(CalciteError::validate(format!(
                "column '{}' must appear in GROUP BY or an aggregate",
                parts.join(".")
            ))),
            // Structural recursion for compound expressions.
            Expr::Unary { minus, expr } => {
                let inner = self.rewrite_post_agg(expr, scope, post)?;
                Ok(if *minus {
                    RexNode::call(Op::Neg, vec![inner])
                } else {
                    inner
                })
            }
            Expr::Not(inner) => Ok(self.rewrite_post_agg(inner, scope, post)?.not()),
            Expr::Binary { op, left, right } => {
                let l = self.rewrite_post_agg(left, scope, post)?;
                let r = self.rewrite_post_agg(right, scope, post)?;
                self.binary_rex(*op, l, r)
            }
            Expr::IsNull { expr, negated } => {
                let inner = self.rewrite_post_agg(expr, scope, post)?;
                Ok(if *negated {
                    inner.is_not_null()
                } else {
                    inner.is_null()
                })
            }
            Expr::Cast { expr, ty } => {
                let inner = self.rewrite_post_agg(expr, scope, post)?;
                Ok(cast_to(inner, ty))
            }
            Expr::Case {
                operand,
                whens,
                else_,
            } => {
                let mut args = vec![];
                for (c, v) in whens {
                    let cond = match operand {
                        Some(op_expr) => {
                            let l = self.rewrite_post_agg(op_expr, scope, post)?;
                            let r = self.rewrite_post_agg(c, scope, post)?;
                            l.eq(r)
                        }
                        None => self.rewrite_post_agg(c, scope, post)?,
                    };
                    args.push(cond);
                    args.push(self.rewrite_post_agg(v, scope, post)?);
                }
                if let Some(el) = else_ {
                    args.push(self.rewrite_post_agg(el, scope, post)?);
                }
                Ok(RexNode::call(Op::Case, args))
            }
            Expr::Func {
                name,
                args,
                over: None,
                ..
            } => {
                // Scalar function over rewritten arguments.
                let mut rex_args = vec![];
                for a in args {
                    rex_args.push(self.rewrite_post_agg(a, scope, post)?);
                }
                self.scalar_func(name, rex_args)
            }
            other => Err(CalciteError::validate(format!(
                "expression {other:?} is not valid in an aggregate query"
            ))),
        }
    }

    // -------------------------------------------------------------
    // FROM clause
    // -------------------------------------------------------------

    fn convert_table_expr(&self, te: &TableExpr) -> Result<(Rel, Scope)> {
        match te {
            TableExpr::Table { name, alias } => {
                // Views shadow base tables; they are expanded inline.
                let view_key = name
                    .iter()
                    .map(|p| p.to_ascii_lowercase())
                    .collect::<Vec<_>>()
                    .join(".");
                let bare_key = name.last().unwrap().to_ascii_lowercase();
                if let Some(plan) = self
                    .views
                    .get(&view_key)
                    .or_else(|| self.views.get(&bare_key))
                {
                    let alias = alias.clone().unwrap_or_else(|| bare_key.clone());
                    let scope = Scope::from_rel(Some(&alias), plan);
                    return Ok((plan.clone(), scope));
                }
                let parts: Vec<&str> = name.iter().map(|s| s.as_str()).collect();
                let tref = self.catalog.resolve(&parts)?;
                let default_alias = tref.name.clone();
                let node = rel::scan(tref);
                let alias = alias.clone().unwrap_or(default_alias);
                let scope = Scope::from_rel(Some(&alias), &node);
                Ok((node, scope))
            }
            TableExpr::Subquery { query, alias } => {
                let node = self.convert_query(query)?;
                let scope = Scope::from_rel(alias.as_deref(), &node);
                Ok((node, scope))
            }
            TableExpr::Join {
                left,
                right,
                kind,
                cond,
            } => {
                let (l, ls) = self.convert_table_expr(left)?;
                let (r, rs) = self.convert_table_expr(right)?;
                let joined = ls.join(rs);
                let jk = match kind {
                    AstJoinKind::Inner | AstJoinKind::Cross => JoinKind::Inner,
                    AstJoinKind::Left => JoinKind::Left,
                    AstJoinKind::Right => JoinKind::Right,
                    AstJoinKind::Full => JoinKind::Full,
                };
                let condition = match cond {
                    JoinCond::None => RexNode::true_lit(),
                    JoinCond::On(e) => {
                        let c = self.to_rex(e, &joined)?;
                        require_boolean(&c, "JOIN ON")?;
                        c
                    }
                    JoinCond::Using(cols) => {
                        let left_arity = l.row_type().arity();
                        let mut conds = vec![];
                        for c in cols {
                            // Resolve on each side independently.
                            let (li, lty) = resolve_in_range(&joined, c, 0, left_arity)?;
                            let (ri, rty) =
                                resolve_in_range(&joined, c, left_arity, joined.arity())?;
                            conds.push(RexNode::input(li, lty).eq(RexNode::input(ri, rty)));
                        }
                        RexNode::and_all(conds)
                    }
                };
                Ok((rel::join(l, r, jk, condition), joined))
            }
        }
    }

    // -------------------------------------------------------------
    // Expression conversion
    // -------------------------------------------------------------

    pub fn to_rex(&self, e: &Expr, scope: &Scope) -> Result<RexNode> {
        match e {
            Expr::Ident(parts) => {
                let (i, ty) = scope.resolve(parts)?;
                Ok(RexNode::input(i, ty))
            }
            Expr::Literal(lit) => literal_rex(lit),
            // A parameter's type is unknown in isolation (ANY); binary_rex
            // narrows it from the other operand where possible.
            Expr::Param(i) => Ok(RexNode::param(*i, RelType::nullable(TypeKind::Any))),
            Expr::Unary { minus, expr } => {
                let inner = self.to_rex(expr, scope)?;
                if *minus {
                    if !inner.ty().kind.is_numeric()
                        && inner.ty().kind != TypeKind::Interval
                        && inner.ty().kind != TypeKind::Any
                    {
                        return Err(CalciteError::validate(format!(
                            "cannot negate {}",
                            inner.ty()
                        )));
                    }
                    Ok(RexNode::call(Op::Neg, vec![inner]))
                } else {
                    Ok(inner)
                }
            }
            Expr::Not(inner) => {
                let r = self.to_rex(inner, scope)?;
                require_boolean(&r, "NOT")?;
                Ok(r.not())
            }
            Expr::Binary { op, left, right } => {
                let l = self.to_rex(left, scope)?;
                let r = self.to_rex(right, scope)?;
                self.binary_rex(*op, l, r)
            }
            Expr::IsNull { expr, negated } => {
                let inner = self.to_rex(expr, scope)?;
                Ok(if *negated {
                    inner.is_not_null()
                } else {
                    inner.is_null()
                })
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                let l = self.to_rex(expr, scope)?;
                let p = self.to_rex(pattern, scope)?;
                let like = RexNode::call(Op::Like, vec![l, p]);
                Ok(if *negated { like.not() } else { like })
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let e_ = self.to_rex(expr, scope)?;
                let lo = self.to_rex(low, scope)?;
                let hi = self.to_rex(high, scope)?;
                let between = RexNode::and_all(vec![e_.clone().ge(lo), e_.le(hi)]);
                Ok(if *negated { between.not() } else { between })
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let e_ = self.to_rex(expr, scope)?;
                let mut arms = vec![];
                for item in list {
                    arms.push(e_.clone().eq(self.to_rex(item, scope)?));
                }
                let inlist = RexNode::or_all(arms);
                Ok(if *negated { inlist.not() } else { inlist })
            }
            Expr::Case {
                operand,
                whens,
                else_,
            } => {
                let mut args = vec![];
                for (c, v) in whens {
                    let cond = match operand {
                        Some(op_expr) => {
                            let l = self.to_rex(op_expr, scope)?;
                            let r = self.to_rex(c, scope)?;
                            l.eq(r)
                        }
                        None => {
                            let c = self.to_rex(c, scope)?;
                            require_boolean(&c, "CASE WHEN")?;
                            c
                        }
                    };
                    args.push(cond);
                    args.push(self.to_rex(v, scope)?);
                }
                if let Some(el) = else_ {
                    args.push(self.to_rex(el, scope)?);
                }
                Ok(RexNode::call(Op::Case, args))
            }
            Expr::Cast { expr, ty } => {
                let inner = self.to_rex(expr, scope)?;
                Ok(cast_to(inner, ty))
            }
            Expr::Item { base, index } => {
                let b = self.to_rex(base, scope)?;
                match &b.ty().kind {
                    TypeKind::Array(_)
                    | TypeKind::Map(_, _)
                    | TypeKind::Multiset(_)
                    | TypeKind::Any => {}
                    other => {
                        return Err(CalciteError::validate(format!(
                            "[] access requires ARRAY/MAP/ANY, found {other}"
                        )))
                    }
                }
                let i = self.to_rex(index, scope)?;
                Ok(RexNode::call(Op::Item, vec![b, i]))
            }
            Expr::Func {
                name,
                over: Some(_),
                ..
            } => Err(CalciteError::validate(format!(
                "windowed {name} is only allowed in the select list"
            ))),
            Expr::Func {
                name,
                args,
                distinct,
                star,
                over: None,
            } => {
                if AggFunc::by_name(name).is_some() {
                    return Err(CalciteError::validate(format!(
                        "aggregate function {name} is not allowed here"
                    )));
                }
                if name.eq_ignore_ascii_case("TUMBLE")
                    || name.eq_ignore_ascii_case("TUMBLE_START")
                    || name.eq_ignore_ascii_case("TUMBLE_END")
                {
                    return Err(CalciteError::validate(format!(
                        "{name} is only allowed with GROUP BY TUMBLE"
                    )));
                }
                if *distinct || *star {
                    return Err(CalciteError::validate(format!(
                        "DISTINCT/* arguments are only valid in aggregates, in {name}"
                    )));
                }
                let mut rex_args = vec![];
                for a in args {
                    rex_args.push(self.to_rex(a, scope)?);
                }
                self.scalar_func(name, rex_args)
            }
        }
    }

    fn scalar_func(&self, name: &str, args: Vec<RexNode>) -> Result<RexNode> {
        if let Some(b) = BuiltinFn::by_name(name) {
            return Ok(RexNode::call(Op::Func(b), args));
        }
        if let Some(udf) = self.functions.lookup(name) {
            let tys: Vec<RelType> = args.iter().map(|a| a.ty().clone()).collect();
            let ty = (udf.ret_type)(&tys);
            return Ok(RexNode::call_typed(Op::Udf(udf), args, ty));
        }
        Err(CalciteError::validate(format!("unknown function '{name}'")))
    }

    fn binary_rex(&self, op: BinOp, l: RexNode, r: RexNode) -> Result<RexNode> {
        // Narrow an untyped (`ANY`) dynamic parameter from the other
        // operand, so `deptno = ?` types the parameter as INTEGER: the
        // bind-time type check gets teeth and batch kernels get a typed
        // column instead of a generic one.
        let (l, r) = narrow_param_types(l, r);
        let rex_op = match op {
            BinOp::Plus => Op::Plus,
            BinOp::Minus => Op::Minus,
            BinOp::Times => Op::Times,
            BinOp::Divide => Op::Divide,
            BinOp::Mod => Op::Mod,
            BinOp::Concat => Op::Concat,
            BinOp::Eq => Op::Eq,
            BinOp::Ne => Op::Ne,
            BinOp::Lt => Op::Lt,
            BinOp::Le => Op::Le,
            BinOp::Gt => Op::Gt,
            BinOp::Ge => Op::Ge,
            BinOp::And => Op::And,
            BinOp::Or => Op::Or,
        };
        // Type validation.
        match rex_op {
            Op::And | Op::Or => {
                require_boolean(&l, "AND/OR")?;
                require_boolean(&r, "AND/OR")?;
            }
            Op::Eq | Op::Ne | Op::Lt | Op::Le | Op::Gt | Op::Ge
                if l.ty().least_restrictive(r.ty()).is_none() =>
            {
                return Err(CalciteError::validate(format!(
                    "cannot compare {} with {}",
                    l.ty(),
                    r.ty()
                )));
            }
            Op::Plus | Op::Minus | Op::Times | Op::Divide | Op::Mod => {
                let lk = &l.ty().kind;
                let rk = &r.ty().kind;
                let numeric_ok = (lk.is_numeric() || *lk == TypeKind::Any || *lk == TypeKind::Null)
                    && (rk.is_numeric() || *rk == TypeKind::Any || *rk == TypeKind::Null);
                let temporal_ok = lk.is_temporal() && rk.is_temporal();
                if !numeric_ok && !temporal_ok {
                    return Err(CalciteError::validate(format!(
                        "invalid operands for arithmetic: {} and {}",
                        l.ty(),
                        r.ty()
                    )));
                }
            }
            _ => {}
        }
        Ok(RexNode::call(rex_op, vec![l, r]))
    }

    // -------------------------------------------------------------
    // Window functions
    // -------------------------------------------------------------

    fn collect_windows(
        &self,
        e: &Expr,
        scope: &Scope,
        seen: &mut Vec<(Expr, usize)>,
        wfs: &mut Vec<WindowFn>,
    ) -> Result<()> {
        match e {
            Expr::Func {
                name,
                args,
                over: Some(spec),
                ..
            } => {
                if seen.iter().any(|(ast, _)| ast == e) {
                    return Ok(());
                }
                let func = if name.eq_ignore_ascii_case("ROW_NUMBER") {
                    WinFunc::RowNumber
                } else if name.eq_ignore_ascii_case("RANK") {
                    WinFunc::Rank
                } else if let Some(a) = AggFunc::by_name(name) {
                    WinFunc::Agg(a)
                } else {
                    return Err(CalciteError::validate(format!(
                        "unknown window function '{name}'"
                    )));
                };
                let col_of = |e: &Expr| -> Result<usize> {
                    let rex = self.to_rex(e, scope)?;
                    rex.as_input_ref().ok_or_else(|| {
                        CalciteError::unsupported(
                            "window arguments/partition/order must be plain columns",
                        )
                    })
                };
                let mut arg_cols = vec![];
                for a in args {
                    arg_cols.push(col_of(a)?);
                }
                let mut partition = vec![];
                for p in &spec.partition {
                    partition.push(col_of(p)?);
                }
                let mut order: Collation = vec![];
                for o in &spec.order {
                    let c = col_of(&o.expr)?;
                    order.push(if o.desc {
                        FieldCollation::desc(c)
                    } else {
                        FieldCollation::asc(c)
                    });
                }
                let frame = self.convert_frame(&spec.frame, !order.is_empty(), scope)?;
                let idx = scope.arity() + wfs.len();
                let ty = match func {
                    WinFunc::RowNumber | WinFunc::Rank => RelType::not_null(TypeKind::Integer),
                    WinFunc::Agg(a) => a.ret_type(arg_cols.first().map(|c| &scope.cols[*c].ty)),
                };
                wfs.push(WindowFn {
                    func,
                    args: arg_cols,
                    partition,
                    order,
                    frame,
                    name: format!("w${}", wfs.len()),
                    ty,
                });
                seen.push((e.clone(), idx));
                Ok(())
            }
            _ => {
                for child in expr_children(e) {
                    self.collect_windows(child, scope, seen, wfs)?;
                }
                Ok(())
            }
        }
    }

    fn convert_frame(
        &self,
        frame: &Option<FrameSpec>,
        has_order: bool,
        scope: &Scope,
    ) -> Result<WindowFrame> {
        let Some(f) = frame else {
            // Default frames per SQL: with ORDER BY, RANGE UNBOUNDED
            // PRECEDING..CURRENT ROW; without, the whole partition.
            return Ok(if has_order {
                WindowFrame::range(FrameBound::UnboundedPreceding, FrameBound::CurrentRow)
            } else {
                WindowFrame::rows(
                    FrameBound::UnboundedPreceding,
                    FrameBound::UnboundedFollowing,
                )
            });
        };
        let conv = |b: &AstFrameBound| -> Result<FrameBound> {
            Ok(match b {
                AstFrameBound::UnboundedPreceding => FrameBound::UnboundedPreceding,
                AstFrameBound::CurrentRow => FrameBound::CurrentRow,
                AstFrameBound::UnboundedFollowing => FrameBound::UnboundedFollowing,
                AstFrameBound::Preceding(e) => FrameBound::Preceding(self.frame_offset(e, scope)?),
                AstFrameBound::Following(e) => FrameBound::Following(self.frame_offset(e, scope)?),
            })
        };
        let lower = conv(&f.lower)?;
        let upper = match &f.upper {
            Some(u) => conv(u)?,
            None => FrameBound::CurrentRow,
        };
        Ok(if f.rows {
            WindowFrame::rows(lower, upper)
        } else {
            WindowFrame::range(lower, upper)
        })
    }

    /// A frame offset: integer row count or interval milliseconds.
    fn frame_offset(&self, e: &Expr, scope: &Scope) -> Result<i64> {
        let rex = self.to_rex(e, scope)?;
        let v = rex
            .eval(&[])
            .map_err(|_| CalciteError::validate("frame bound must be a constant"))?;
        match v {
            Datum::Int(i) => Ok(i),
            Datum::Interval(ms) => Ok(ms),
            other => Err(CalciteError::validate(format!(
                "invalid frame bound {other}"
            ))),
        }
    }

    fn to_rex_with_windows(
        &self,
        e: &Expr,
        scope: &Scope,
        windows: &[(Expr, usize)],
        _base_arity: usize,
        windowed_rel: &Rel,
    ) -> Result<RexNode> {
        // Exact windowed-call replacement.
        for (ast, idx) in windows {
            if ast == e {
                return Ok(RexNode::input(
                    *idx,
                    windowed_rel.row_type().field(*idx).ty.clone(),
                ));
            }
        }
        match e {
            Expr::Func { over: Some(_), .. } => {
                Err(CalciteError::internal("uncollected window call"))
            }
            Expr::Binary { op, left, right } => {
                let l =
                    self.to_rex_with_windows(left, scope, windows, _base_arity, windowed_rel)?;
                let r =
                    self.to_rex_with_windows(right, scope, windows, _base_arity, windowed_rel)?;
                self.binary_rex(*op, l, r)
            }
            Expr::Cast { expr, ty } => {
                let inner =
                    self.to_rex_with_windows(expr, scope, windows, _base_arity, windowed_rel)?;
                Ok(cast_to(inner, ty))
            }
            _ => self.to_rex(e, scope),
        }
    }
}

/// Result of converting one SELECT: the plan (possibly carrying hidden
/// sort columns beyond `n_visible`) and the resolved ORDER BY collation.
struct SelectOutput {
    rel: Rel,
    n_visible: usize,
    collation: Collation,
}

/// Group-key context used when rewriting expressions above an Aggregate.
struct PostAggCtx<'a> {
    group_rex: &'a [RexNode],
    tumble_info: &'a [Option<i64>],
    aggs: &'a [AggInfo],
    agg_out_offset: usize,
    agg_node: &'a Rel,
}

/// `TUMBLE(ts, i)` window start: `ts - (ts % i)`.
fn tumble_start(ts: RexNode, ms: i64) -> RexNode {
    let iv = RexNode::literal(Datum::Interval(ms), RelType::not_null(TypeKind::Interval));
    let offset = RexNode::call_typed(
        Op::Mod,
        vec![ts.clone(), iv],
        RelType::not_null(TypeKind::Interval),
    );
    let nullable = ts.ty().nullable;
    RexNode::call_typed(
        Op::Minus,
        vec![ts, offset],
        RelType::new(TypeKind::Timestamp, nullable),
    )
}

fn interval_millis(rex: &RexNode) -> Result<i64> {
    match rex.as_literal() {
        Some(Datum::Interval(ms)) if *ms > 0 => Ok(*ms),
        _ => Err(CalciteError::validate(
            "expected a positive INTERVAL literal",
        )),
    }
}

fn literal_rex(lit: &Lit) -> Result<RexNode> {
    Ok(match lit {
        Lit::Int(i) => RexNode::lit_int(*i),
        Lit::Double(d) => RexNode::lit_double(*d),
        Lit::Str(s) => RexNode::lit_str(s),
        Lit::Bool(b) => RexNode::lit_bool(*b),
        Lit::Null => RexNode::lit_null(RelType::nullable(TypeKind::Null)),
        Lit::Date(s) => {
            let d = parse_date(s)
                .ok_or_else(|| CalciteError::validate(format!("invalid DATE '{s}'")))?;
            RexNode::literal(Datum::Date(d), RelType::not_null(TypeKind::Date))
        }
        Lit::Timestamp(s) => {
            let t = parse_timestamp(s)
                .ok_or_else(|| CalciteError::validate(format!("invalid TIMESTAMP '{s}'")))?;
            RexNode::literal(Datum::Timestamp(t), RelType::not_null(TypeKind::Timestamp))
        }
        Lit::Interval { value, unit } => {
            let n: i64 = value
                .trim()
                .parse()
                .map_err(|_| CalciteError::validate(format!("invalid INTERVAL '{value}'")))?;
            RexNode::literal(
                Datum::Interval(n * unit.millis()),
                RelType::not_null(TypeKind::Interval),
            )
        }
    })
}

/// When exactly one side of a binary operator is an `ANY`-typed dynamic
/// parameter and the other side has a concrete type, adopt that type for
/// the parameter (nullable: the bound value may be NULL).
fn narrow_param_types(l: RexNode, r: RexNode) -> (RexNode, RexNode) {
    fn concrete(ty: &RelType) -> bool {
        !matches!(ty.kind, TypeKind::Any | TypeKind::Null)
    }
    fn narrow(e: RexNode, other: &RelType) -> RexNode {
        match e {
            RexNode::DynamicParam { index, ty } if !concrete(&ty) && concrete(other) => {
                RexNode::param(index, RelType::nullable(other.kind.clone()))
            }
            e => e,
        }
    }
    let l_ty = l.ty().clone();
    let r_ty = r.ty().clone();
    (narrow(l, &r_ty), narrow(r, &l_ty))
}

/// Maps a parsed SQL type to the core type system (shared by CAST and
/// CREATE TABLE column definitions).
pub fn ast_type_to_kind(ty: &AstType) -> TypeKind {
    match ty {
        AstType::Boolean => TypeKind::Boolean,
        AstType::Integer => TypeKind::Integer,
        AstType::Double => TypeKind::Double,
        AstType::Varchar => TypeKind::Varchar,
        AstType::Date => TypeKind::Date,
        AstType::Timestamp => TypeKind::Timestamp,
        AstType::Geometry => TypeKind::Geometry,
        AstType::Any => TypeKind::Any,
    }
}

fn cast_to(inner: RexNode, ty: &AstType) -> RexNode {
    let kind = ast_type_to_kind(ty);
    let nullable = inner.ty().nullable;
    inner.cast(RelType::new(kind, nullable))
}

fn require_boolean(rex: &RexNode, context: &str) -> Result<()> {
    match rex.ty().kind {
        TypeKind::Boolean | TypeKind::Any | TypeKind::Null => Ok(()),
        ref other => Err(CalciteError::validate(format!(
            "{context} requires a boolean, found {other}"
        ))),
    }
}

fn derive_name(alias: Option<&str>, expr: &Expr, i: usize) -> String {
    if let Some(a) = alias {
        return a.to_string();
    }
    match expr {
        Expr::Ident(parts) => parts.last().unwrap().clone(),
        Expr::Func { name, .. } => name.to_ascii_lowercase(),
        _ => format!("EXPR${i}"),
    }
}

fn contains_agg(e: &Expr) -> bool {
    match e {
        Expr::Func {
            name, over: None, ..
        } if AggFunc::by_name(name).is_some() => true,
        _ => expr_children(e).into_iter().any(contains_agg),
    }
}

/// Child expressions for generic AST traversal.
fn expr_children(e: &Expr) -> Vec<&Expr> {
    match e {
        Expr::Ident(_) | Expr::Literal(_) | Expr::Param(_) => vec![],
        Expr::Unary { expr, .. } => vec![expr],
        Expr::Not(x) => vec![x],
        Expr::Binary { left, right, .. } => vec![left, right],
        Expr::IsNull { expr, .. } => vec![expr],
        Expr::Like { expr, pattern, .. } => vec![expr, pattern],
        Expr::Between {
            expr, low, high, ..
        } => vec![expr, low, high],
        Expr::InList { expr, list, .. } => {
            let mut v: Vec<&Expr> = vec![expr];
            v.extend(list.iter());
            v
        }
        Expr::Case {
            operand,
            whens,
            else_,
        } => {
            let mut v: Vec<&Expr> = vec![];
            if let Some(o) = operand {
                v.push(o);
            }
            for (c, val) in whens {
                v.push(c);
                v.push(val);
            }
            if let Some(e2) = else_ {
                v.push(e2);
            }
            v
        }
        Expr::Cast { expr, .. } => vec![expr],
        Expr::Func { args, .. } => args.iter().collect(),
        Expr::Item { base, index } => vec![base, index],
    }
}

/// Whether a FROM clause references at least one stream table.
fn table_expr_has_stream(te: &TableExpr, catalog: &Catalog) -> bool {
    match te {
        TableExpr::Table { name, .. } => {
            let parts: Vec<&str> = name.iter().map(|s| s.as_str()).collect();
            catalog
                .resolve(&parts)
                .map(|t| t.table.is_stream())
                .unwrap_or(false)
        }
        TableExpr::Subquery { .. } => false,
        TableExpr::Join { left, right, .. } => {
            table_expr_has_stream(left, catalog) || table_expr_has_stream(right, catalog)
        }
    }
}

/// Resolves a USING column within one side of a join scope.
fn resolve_in_range(
    scope: &Scope,
    col: &str,
    start: usize,
    end: usize,
) -> Result<(usize, RelType)> {
    for i in start..end {
        if scope.cols[i].name.eq_ignore_ascii_case(col) {
            return Ok((i, scope.cols[i].ty.clone()));
        }
    }
    Err(CalciteError::validate(format!(
        "USING column '{col}' not found on one side of the join"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use rcalcite_core::catalog::{MemTable, Schema};
    use rcalcite_core::rel::RelKind;
    use rcalcite_core::types::RowTypeBuilder;
    use std::sync::Arc;

    fn catalog() -> Arc<Catalog> {
        let catalog = Catalog::new();
        let s = Schema::new();
        s.add_table(
            "sales",
            MemTable::new(
                RowTypeBuilder::new()
                    .add_not_null("productid", TypeKind::Integer)
                    .add("discount", TypeKind::Double)
                    .add("units", TypeKind::Integer)
                    .build(),
                vec![],
            ),
        );
        s.add_table(
            "products",
            MemTable::new(
                RowTypeBuilder::new()
                    .add_not_null("productid", TypeKind::Integer)
                    .add_not_null("name", TypeKind::Varchar)
                    .build(),
                vec![],
            ),
        );
        catalog.add_schema("s", s);
        catalog
    }

    fn to_rel(sql: &str) -> Result<Rel> {
        let cat = catalog();
        let funcs = FunctionRegistry::new();
        match parse(sql)? {
            crate::ast::Stmt::Query(q) => query_to_rel(&cat, &funcs, &q),
            _ => panic!(),
        }
    }

    #[test]
    fn simple_select_shape() {
        let rel_ = to_rel("SELECT name FROM products WHERE productid > 5").unwrap();
        assert_eq!(rel_.kind(), RelKind::Project);
        assert_eq!(rel_.input(0).kind(), RelKind::Filter);
        assert_eq!(rel_.input(0).input(0).kind(), RelKind::Scan);
        assert_eq!(rel_.row_type().field_names(), vec!["name"]);
    }

    #[test]
    fn figure4_query_converts() {
        let rel_ = to_rel(
            "SELECT products.name, COUNT(*) AS c \
             FROM sales JOIN products USING (productid) \
             WHERE sales.discount IS NOT NULL \
             GROUP BY products.name \
             ORDER BY COUNT(*) DESC",
        )
        .unwrap();
        // Sort over Project over Aggregate over Project over Filter over Join.
        assert_eq!(rel_.kind(), RelKind::Sort);
        assert_eq!(rel_.input(0).kind(), RelKind::Project);
        assert_eq!(rel_.input(0).input(0).kind(), RelKind::Aggregate);
        assert_eq!(rel_.row_type().field_names(), vec!["name", "c"]);
    }

    #[test]
    fn select_star_and_qualified_star() {
        let rel_ = to_rel("SELECT * FROM products").unwrap();
        assert_eq!(rel_.kind(), RelKind::Scan);
        let rel_ =
            to_rel("SELECT p.* FROM products p JOIN sales s ON p.productid = s.productid").unwrap();
        assert_eq!(rel_.row_type().arity(), 2);
    }

    #[test]
    fn aggregate_with_having() {
        let rel_ = to_rel(
            "SELECT productid, SUM(units) AS total FROM sales \
             GROUP BY productid HAVING SUM(units) > 10",
        )
        .unwrap();
        assert_eq!(rel_.kind(), RelKind::Project);
        assert_eq!(rel_.input(0).kind(), RelKind::Filter);
        assert_eq!(rel_.input(0).input(0).kind(), RelKind::Aggregate);
    }

    #[test]
    fn group_expr_arithmetic_matched_in_select() {
        let rel_ =
            to_rel("SELECT productid + 1, COUNT(*) FROM sales GROUP BY productid + 1").unwrap();
        assert_eq!(rel_.row_type().arity(), 2);
    }

    #[test]
    fn ungrouped_column_rejected() {
        let err = to_rel("SELECT discount, COUNT(*) FROM sales GROUP BY productid");
        assert!(matches!(err, Err(CalciteError::Validate(_))), "{err:?}");
    }

    #[test]
    fn aggregate_in_where_rejected() {
        let err = to_rel("SELECT productid FROM sales WHERE COUNT(*) > 1");
        assert!(matches!(err, Err(CalciteError::Validate(_))));
    }

    #[test]
    fn unknown_column_and_table() {
        assert!(to_rel("SELECT nope FROM sales").is_err());
        assert!(to_rel("SELECT 1 FROM nonexistent").is_err());
        assert!(to_rel("SELECT x.name FROM products p").is_err());
    }

    #[test]
    fn type_mismatch_rejected() {
        let err = to_rel("SELECT 1 FROM products WHERE name > TRUE");
        assert!(matches!(err, Err(CalciteError::Validate(_))));
        let err = to_rel("SELECT name + 1 FROM products");
        assert!(matches!(err, Err(CalciteError::Validate(_))));
        let err = to_rel("SELECT 1 FROM products WHERE name");
        assert!(matches!(err, Err(CalciteError::Validate(_))));
    }

    #[test]
    fn distinct_becomes_aggregate() {
        let rel_ = to_rel("SELECT DISTINCT productid FROM sales").unwrap();
        assert_eq!(rel_.kind(), RelKind::Aggregate);
    }

    #[test]
    fn order_by_output_name_and_position() {
        let rel_ = to_rel("SELECT name AS n FROM products ORDER BY n").unwrap();
        assert_eq!(rel_.kind(), RelKind::Sort);
        let rel_ = to_rel("SELECT name, productid FROM products ORDER BY 2 DESC").unwrap();
        if let rel::RelOp::Sort { collation, .. } = &rel_.op {
            assert_eq!(collation[0].field, 1);
            assert!(collation[0].descending);
        } else {
            panic!();
        }
    }

    #[test]
    fn limit_offset() {
        let rel_ = to_rel("SELECT name FROM products LIMIT 5 OFFSET 2").unwrap();
        if let rel::RelOp::Sort { offset, fetch, .. } = &rel_.op {
            assert_eq!(*offset, Some(2));
            assert_eq!(*fetch, Some(5));
        } else {
            panic!();
        }
    }

    #[test]
    fn union_and_values() {
        let rel_ =
            to_rel("SELECT productid FROM sales UNION SELECT productid FROM products").unwrap();
        assert_eq!(rel_.kind(), RelKind::Union);
        let rel_ = to_rel("VALUES (1, 'a'), (2, 'b')").unwrap();
        assert_eq!(rel_.kind(), RelKind::Values);
        assert_eq!(rel_.row_type().arity(), 2);
        // Arity mismatch.
        assert!(
            to_rel("SELECT productid FROM sales UNION SELECT productid, units FROM sales").is_err()
        );
    }

    #[test]
    fn subquery_scope() {
        let rel_ =
            to_rel("SELECT n FROM (SELECT name AS n FROM products) AS sub WHERE n LIKE 'a%'")
                .unwrap();
        assert_eq!(rel_.row_type().field_names(), vec!["n"]);
    }

    #[test]
    fn between_and_in_desugar() {
        let rel_ = to_rel(
            "SELECT 1 FROM sales WHERE productid BETWEEN 1 AND 5 AND productid IN (1, 2, 3)",
        )
        .unwrap();
        assert_eq!(rel_.input(0).kind(), RelKind::Filter);
    }

    #[test]
    fn stream_requires_stream_table() {
        // `sales` is not a stream.
        let err = to_rel("SELECT STREAM productid FROM sales");
        assert!(matches!(err, Err(CalciteError::Validate(_))));
    }

    #[test]
    fn window_function_in_select() {
        let rel_ =
            to_rel("SELECT productid, SUM(units) OVER (PARTITION BY productid) AS s FROM sales")
                .unwrap();
        assert_eq!(rel_.kind(), RelKind::Project);
        assert_eq!(rel_.input(0).kind(), RelKind::Window);
    }

    #[test]
    fn row_number_window() {
        let rel_ =
            to_rel("SELECT productid, ROW_NUMBER() OVER (ORDER BY units DESC) AS rn FROM sales")
                .unwrap();
        assert_eq!(rel_.input(0).kind(), RelKind::Window);
        assert_eq!(rel_.row_type().field_names(), vec!["productid", "rn"]);
    }
}
