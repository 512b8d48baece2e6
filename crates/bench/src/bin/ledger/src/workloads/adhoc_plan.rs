//! `adhoc_plan`: Calcite's primary use is as a planner library, and this
//! is the workload where planning *is* the latency. One client sends
//! statements drawn from ten template families over tiny tables; four
//! in five carry a literal never seen before, so the plan cache misses
//! and the statement pays lexer, parser, converter, Hep and Volcano in
//! full, while the executor has almost nothing to do. One in five comes
//! from a 32-text hot set that fits the 128-entry cache.

use super::*;
use crate::gen::{Rng, StreamHash};
use crate::metrics::FAMILIES;
use crate::trace::{self, SharedTracer};
use rcalcite_adapters::demo::{build_federation, Federation};
use rcalcite_enumerable::EnumerableExecutor;

/// Statements per family per 10 s of `--seconds`, sized so the timed
/// part takes about `--seconds` on the 2-core reference box. The cost of
/// a plan grows so steeply with join count under the default exhaustive
/// search (join4 ≈ 0.15 s, join6 ≈ 6 s per statement) that weights in
/// proportion to "how common is this statement" would make the two deep
/// joins the whole run; they get a handful and one, and say so.
const PER_10S: [usize; 10] = [800, 575, 290, 9, 1, 460, 460, 575, 460, 140];
const QUICK: [usize; 10] = [12, 10, 8, 2, 0, 8, 8, 8, 8, 6];
/// Hot-set texts per family (32 in all). None for join6: warming one
/// would add its full plan time to every set-up.
const HOT: [usize; 10] = [5, 5, 4, 3, 0, 3, 3, 3, 3, 3];
const HOT_SHARE_PERCENT: usize = 20;
const ACCOUNTS: i64 = 1_000;
const CHAIN_BASE: i64 = 100;
const ORDERS: usize = 2_000;
/// Every n-th statement is also run unoptimized through the interpreter.
const ORACLE_EVERY: usize = 50;

const OPT_SPANS: [&str; 10] = [
    "core.planner.optimize.point",
    "core.planner.optimize.agg",
    "core.planner.optimize.join2",
    "core.planner.optimize.join4",
    "core.planner.optimize.join6",
    "core.planner.optimize.subquery",
    "core.planner.optimize.setop",
    "core.planner.optimize.window",
    "core.planner.optimize.mv_subst",
    "core.planner.optimize.federated",
];

const FEDERATED: usize = 9;

/// The statement of `family` carrying literal `lit`. Small constants are
/// derived from it so the predicate selects something; the literal
/// itself rides in a predicate that excludes nothing, which is what
/// makes the text — and so the plan-cache key — unique.
fn statement(family: usize, lit: u64) -> String {
    let big = 1_000_000 + lit;
    let chain = |n: usize| {
        let mut sql = format!("SELECT t1.id, t{n}.v FROM t1");
        for k in 2..=n {
            sql.push_str(&format!(" JOIN t{k} ON t{}.next_id = t{k}.id", k - 1));
        }
        sql.push_str(&format!(" WHERE t1.v = {} AND t{n}.id <> {big}", lit % 13));
        sql
    };
    match family {
        0 => format!(
            "SELECT id, branch, balance FROM accounts WHERE id = {} AND balance <> {big}",
            lit % ACCOUNTS as u64
        ),
        1 => format!(
            "SELECT branch, COUNT(*) AS n, SUM(balance) AS s FROM accounts \
             WHERE balance > {} AND id <> {big} GROUP BY branch",
            1000 + lit % 5000
        ),
        2 => format!(
            "SELECT a.id, b.name FROM accounts a JOIN branches b ON a.branch = b.branch \
             WHERE a.id < {} AND a.balance <> {big}",
            1 + lit % 200
        ),
        3 => chain(4),
        4 => chain(6),
        // The parser takes subqueries in FROM only (no IN / scalar
        // subquery — see README, Known findings).
        5 => format!(
            "SELECT q.branch, q.n FROM (SELECT branch, COUNT(*) AS n FROM accounts \
             WHERE id < {} GROUP BY branch) q WHERE q.n <> {big}",
            100 + lit % 900
        ),
        6 => format!(
            "SELECT id FROM accounts WHERE id < {} UNION SELECT id FROM t1 WHERE v = {} AND id <> {big}",
            1 + lit % 60,
            lit % 13
        ),
        7 => format!(
            "SELECT id, SUM(balance) OVER (PARTITION BY branch ORDER BY id) AS running \
             FROM accounts WHERE id < {} AND balance <> {big}",
            50 + lit % 250
        ),
        8 => format!("{MV_DEFINITION} HAVING SUM(balance) <> {big}"),
        _ => format!(
            "SELECT o.rowtime, p.name FROM orders o JOIN mysql.products p \
             ON o.productid = p.productid WHERE o.units > {} AND o.productid <> {big}",
            45 + lit % 4
        ),
    }
}

struct Sizes {
    counts: [usize; 10],
    traced_per_family: usize,
}

fn sizes(ctx: &Ctx) -> Sizes {
    let share = if ctx.trace { 0.35 } else { 1.0 };
    let mut counts = QUICK;
    if !ctx.quick {
        for (c, per10) in counts.iter_mut().zip(PER_10S) {
            *c = (per10 as f64 * ctx.seconds / 10.0 * share).round() as usize;
        }
    }
    Sizes {
        counts,
        traced_per_family: ctx.op_count(3.0, 2),
    }
}

struct Stmt {
    family: usize,
    hot: bool,
    sql: String,
}

/// The hot set of a seed, per family.
fn hot_set(seed: u64) -> Vec<Vec<String>> {
    let mut rng = Rng::fork(seed, 77);
    (0..FAMILIES.len())
        .map(|f| {
            (0..HOT[f])
                .map(|_| statement(f, rng.below(1 << 31)))
                .collect()
        })
        .collect()
}

/// Exact per-family counts, one in five of each family from the hot
/// set, in seeded order.
fn gen_stream(seed: u64, sz: &Sizes) -> (Vec<Stmt>, u64) {
    let mut rng = Rng::fork(seed, 0);
    let hot = hot_set(seed);
    let mut stream = vec![];
    for (family, count) in sz.counts.iter().enumerate() {
        let hot_n = if hot[family].is_empty() {
            0
        } else {
            count * HOT_SHARE_PERCENT / 100
        };
        for i in 0..*count {
            let is_hot = i < hot_n;
            let sql = if is_hot {
                hot[family][rng.below(hot[family].len() as u64) as usize].clone()
            } else {
                statement(family, rng.below(1 << 31))
            };
            stream.push(Stmt {
                family,
                hot: is_hot,
                sql,
            });
        }
    }
    rng.shuffle(&mut stream);
    let mut h = StreamHash::default();
    for s in &stream {
        h.bytes(s.sql.as_bytes());
    }
    (stream, h.0)
}

#[cfg(test)]
pub fn stream_hash(seed: u64) -> u64 {
    let ctx = crate::test_ctx(seed, false);
    gen_stream(seed, &sizes(&ctx)).1
}

struct World {
    /// Bank + join-chain schema, maintained view, interpreter registered.
    conn: Connection,
    /// The demo federation (its own catalog and connection).
    fed: Federation,
}

impl World {
    fn conn_for(&self, family: usize) -> &Connection {
        if family == FEDERATED {
            &self.fed.conn
        } else {
            &self.conn
        }
    }
}

fn setup(ctx: &Ctx) -> Result<World, String> {
    let catalog = bank_catalog(ctx.seed, ACCOUNTS, BRANCHES);
    let schema = catalog.schema("bank").expect("bank schema");
    for k in 1..=6i64 {
        let rows = CHAIN_BASE * k;
        schema.add_table(
            format!("t{k}"),
            MemTable::new(
                RowTypeBuilder::new()
                    .add_not_null("id", TypeKind::Integer)
                    .add_not_null("next_id", TypeKind::Integer)
                    .add_not_null("v", TypeKind::Integer)
                    .build(),
                (0..rows)
                    .map(|id| {
                        vec![
                            Datum::Int(id),
                            Datum::Int((id * 7) % (CHAIN_BASE * (k + 1))),
                            Datum::Int(id % 13),
                        ]
                    })
                    .collect(),
            ),
        );
    }
    let conn = Connection::builder(catalog)
        .workers(ctx.workers())
        .with_interpreter()
        .build();
    bank_ddl(&conn)?;
    let mut fed = build_federation(ORDERS, 100);
    fed.conn
        .register_executor(Arc::new(EnumerableExecutor::interpreter()));
    let world = World { conn, fed };
    // Warm-up: the hot set compiled and run once.
    for (family, texts) in hot_set(ctx.seed).iter().enumerate() {
        for sql in texts {
            world
                .conn_for(family)
                .prepare(sql)
                .and_then(|s| s.query(&[]))
                .map_err(|e| format!("warm-up `{sql}`: {e}"))?;
        }
    }
    Ok(world)
}

/// The unoptimized logical plan through the interpreter must give the
/// optimized plan's rows (as a multiset).
fn interpreter_agrees(conn: &Connection, sql: &str, got: &[Row]) -> Result<(), String> {
    let logical = conn.parse_to_rel(sql).map_err(|e| e.to_string())?;
    let mut naive = conn
        .exec_context()
        .execute_collect(&logical)
        .map_err(|e| format!("interpreter: {e}"))?;
    let mut got = got.to_vec();
    naive.sort();
    got.sort();
    if naive == got {
        Ok(())
    } else {
        Err(format!(
            "optimized plan returned {} rows, the interpreter {}",
            got.len(),
            naive.len()
        ))
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let sz = sizes(ctx);
    let mut report = Report::default();
    let (world, setup_secs) = repeat_setup(ctx.setups(), || setup(ctx))?;
    // The mv_subst family must be answered from the view.
    let mv_plan = world
        .conn
        .explain(&statement(8, 1))
        .unwrap_or_else(|e| e.to_string());
    report.check(mv_plan.contains("mv: substituted"), || {
        format!("mv_subst template is not served by the view:\n{mv_plan}")
    });
    let (stream, _) = gen_stream(ctx.seed, &sz);

    let n = stream.len();
    let mut classes: Vec<(&str, Samples)> = FAMILIES
        .iter()
        .map(|f| (*f, Samples::with_capacity(n)))
        .collect();
    let mut plan: Vec<Samples> = FAMILIES.iter().map(|_| Samples::with_capacity(n)).collect();
    let mut reads = Samples::with_capacity(n);
    let (mut hot_seen, mut hot_hits) = (0u64, 0u64);
    let mut done = 0u64;
    let start = Instant::now();
    let deadline = ctx.deadline(start);
    for (i, s) in stream.iter().enumerate() {
        let conn = world.conn_for(s.family);
        if ctx.trace && s.hot {
            // Ask the connection, before the statement runs, whether the
            // hot text is still cached (traced run only: EXPLAIN plans).
            hot_seen += 1;
            if conn.explain(&s.sql).is_ok_and(|p| {
                p.lines()
                    .next()
                    .is_some_and(|l| l.contains("plan cache: hit"))
            }) {
                hot_hits += 1;
            }
        }
        let t0 = Instant::now();
        if t0 >= deadline {
            break;
        }
        let prepared = conn.prepare(&s.sql);
        let t1 = Instant::now();
        let result = prepared.and_then(|p| p.bind(&[])?.collect());
        let t2 = Instant::now();
        done += 1;
        classes[s.family].1.push(ns(t2 - t0));
        reads.push(ns(t2 - t1));
        if !s.hot {
            plan[s.family].push(ns(t1 - t0));
        }
        let verdict = match &result {
            Err(e) => Err(e.to_string()),
            Ok(_) if i % ORACLE_EVERY != 0 => Ok(()),
            Ok(q) => interpreter_agrees(conn, &s.sql, &q.rows),
        };
        report.check(verdict.is_ok(), || {
            format!("`{}`: {}", s.sql, verdict.unwrap_err())
        });
    }
    let wall = start.elapsed();
    report.diag("statements_planned", n as f64);
    set_common_metrics(
        &mut report,
        &setup_secs,
        done,
        wall,
        &mut reads,
        &mut classes,
    );

    // prepare() on unique-literal statements: geomean of the per-family
    // medians, and the p95 over all of them.
    let mut family_medians = vec![];
    for (f, samples) in plan.iter_mut().enumerate() {
        if let Some(s) = samples.summary() {
            family_medians.push(s.p50_us);
            report.diag(&format!("plan.{}.p50_us", FAMILIES[f]), s.p50_us);
            report.diag(&format!("plan.{}.n", FAMILIES[f]), s.n as f64);
        }
    }
    let mut merged = Samples::with_capacity(n);
    for samples in &plan {
        merged.extend(samples);
    }
    if let Some(s) = merged.summary() {
        report.set("plan_p95_us", s.p95_us);
        report.set("plan_geomean_us", geomean(&family_medians));
        report.class_diag("plan", &s);
    }
    if hot_seen > 0 {
        report.set(
            "sql.plan_cache.hot_hit_ratio",
            hot_hits as f64 / hot_seen as f64,
        );
        report.diag("hot_statements", hot_seen as f64);
    }

    let mut spans = vec![];
    if ctx.trace {
        spans = traced_pass(ctx, &sz, &world, &mut report)?;
    }
    report.set("peak_rss_mb", peak_rss_mb());
    Ok(Outcome { report, spans })
}

/// Fresh unique-literal statements of every family, each run whole and
/// then in decomposed form: `tokenize` → `parse` → `parse_to_rel` →
/// `optimize` → `execute_collect`.
fn traced_pass(
    ctx: &Ctx,
    sz: &Sizes,
    world: &World,
    report: &mut Report,
) -> Result<Vec<Span>, String> {
    let tracer: SharedTracer = trace::shared(FAMILIES.len() * sz.traced_per_family * 5 + 16);
    let mut rng = Rng::fork(ctx.seed, 99);
    let (mut whole_ns, mut sql_bytes) = (0u64, 0usize);
    let pass_start = Instant::now();
    for family in 0..FAMILIES.len() {
        // One join6 plan costs seconds: a single decomposed sample, and
        // no second copy of it for the whole-statement comparison. A
        // join4 plan costs a tenth of a second: a few samples.
        let deep = family == 4;
        let reps = match family {
            4 => usize::from(!ctx.quick),
            3 => sz.traced_per_family.min(3),
            _ => sz.traced_per_family,
        };
        let conn = world.conn_for(family);
        for _ in 0..reps {
            let e =
                |e: rcalcite_core::error::CalciteError| format!("traced {}: {e}", FAMILIES[family]);
            if !deep {
                let sql = statement(family, rng.below(1 << 31));
                let t0 = Instant::now();
                conn.prepare(&sql)
                    .and_then(|p| p.bind(&[])?.collect())
                    .map_err(e)?;
                whole_ns += ns(t0.elapsed());
            }
            // A second unique text of the same family: same work, and
            // nothing the whole run left in the plan cache to find.
            let sql = statement(family, rng.below(1 << 31));
            sql_bytes += sql.len();
            tracer.lock().expect("tracer lock").next_stmt();
            trace::span(&tracer, "sql.lexer.tokenize", || {
                rcalcite_sql::lexer::tokenize(&sql)
            })
            .map_err(e)?;
            trace::span(&tracer, "sql.parser.parse", || rcalcite_sql::parse(&sql)).map_err(e)?;
            let logical = trace::span(&tracer, "sql.converter.parse_to_rel", || {
                conn.parse_to_rel(&sql)
            })
            .map_err(e)?;
            let physical =
                trace::span(&tracer, OPT_SPANS[family], || conn.optimize(&logical)).map_err(e)?;
            let rows = trace::span(&tracer, "enumerable.execute", || {
                conn.exec_context().execute_collect(&physical)
            })
            .map_err(e)?;
            report.check(interpreter_agrees(conn, &sql, &rows).is_ok(), || {
                format!("traced `{sql}` disagrees with the interpreter")
            });
        }
    }
    let pass_ns = ns(pass_start.elapsed());
    let spans = tracer.lock().expect("tracer lock").spans().to_vec();
    let selfs = trace::self_times(&spans);
    set_front_end_metrics(report, &selfs, sql_bytes);
    for (f, name) in OPT_SPANS.iter().enumerate() {
        report.set(
            &format!("core.planner.optimize_us.{}", FAMILIES[f]),
            median_self_us(&selfs, name),
        );
    }
    // Whole statement ≙ parse_to_rel + optimize + execute (tokenize and
    // parse are measured again inside parse_to_rel), join6 left out on
    // both sides.
    let deep_stmts: Vec<u32> = spans
        .iter()
        .filter(|s| s.name == OPT_SPANS[4])
        .map(|s| s.stmt)
        .collect();
    let shallow = |s: &Span| !deep_stmts.contains(&s.stmt);
    let front_planner: u64 = spans
        .iter()
        .filter(|s| shallow(s))
        .filter(|s| s.name == "sql.converter.parse_to_rel" || s.name.starts_with("core.planner."))
        .map(Span::dur_ns)
        .sum();
    let executed: u64 = spans
        .iter()
        .filter(|s| shallow(s) && s.name == "enumerable.execute")
        .map(Span::dur_ns)
        .sum();
    set_trace_sanity(
        report,
        front_planner + executed,
        whole_ns,
        pass_ns,
        trace::top_level_ns(&spans),
    );
    report.diag(
        "share.front_end_planner",
        front_planner as f64 / whole_ns.max(1) as f64,
    );
    report.diag("share.commit_path", 0.0);

    // prepare() of a text the cache holds.
    let mut hits = vec![];
    for (family, texts) in hot_set(ctx.seed).iter().enumerate() {
        let conn = world.conn_for(family);
        for sql in texts {
            conn.prepare(sql).map_err(|e| e.to_string())?;
            let t0 = Instant::now();
            let again = conn.prepare(sql);
            hits.push(ns(t0.elapsed()));
            drop(again);
        }
    }
    report.set("sql.plan_cache.hit_us", median_us(&hits));
    Ok(spans)
}
