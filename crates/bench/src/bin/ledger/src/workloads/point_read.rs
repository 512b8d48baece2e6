//! `point_read`: the steady state of an embedded OLTP reader. Two
//! clients issue prepared reads against a 200 k-row indexed table with
//! a maintained view; every plan comes from the plan cache, nothing
//! writes. Lexer, parser, converter, planner, txn, wal and ivm do no
//! work here — a change to any of them must leave this workload's
//! numbers where they were.

use super::*;
use crate::gen::{class_stream, Rng, StreamHash, Zipf};
use crate::trace::{self, SharedTracer};

/// Ops per client per second of `--seconds`, calibrated on the 2-core
/// reference box so the timed part takes about `--seconds`.
const RATE: f64 = 135_000.0;
/// point : range : MV-served aggregate.
const MIX: [u32; 3] = [80, 15, 5];
const CLASSES: [&str; 3] = ["point", "range", "mv"];
const ZIPF_THETA: f64 = 0.99;

struct Sizes {
    accounts: i64,
    clients: usize,
    ops_per_client: usize,
    warmup: usize,
    traced_ops: usize,
}

fn sizes(ctx: &Ctx) -> Sizes {
    // The traced run spends its time budget twice — a shorter
    // front-door pass, then the decomposed pass.
    let share = if ctx.trace { 0.4 } else { 1.0 };
    Sizes {
        accounts: if ctx.quick { 2_000 } else { 200_000 },
        clients: ctx.clients(),
        ops_per_client: ctx.op_count(RATE * share, 1_500),
        warmup: if ctx.quick { 50 } else { 2_000 },
        traced_ops: ctx.op_count(4_000.0, 200),
    }
}

#[derive(Clone, Copy)]
enum Op {
    Point(i64),
    Range(i64),
    Mv,
}

struct World {
    /// `conns[0]` ran the DDL, so its planner substitutes the view; the
    /// others read the view's storage by name.
    conns: Vec<Connection>,
    /// `prefix[i]` = Σ balance of ids `< i`: a range's expected sum in O(1).
    prefix: Vec<i64>,
    /// Expected `(n, total)` per branch.
    groups: Vec<(i64, i64)>,
}

fn setup(ctx: &Ctx, sz: &Sizes) -> Result<World, String> {
    let catalog = bank_catalog(ctx.seed, sz.accounts, BRANCHES);
    let conns: Vec<Connection> = (0..sz.clients)
        .map(|_| {
            Connection::builder(catalog.clone())
                .workers(ctx.workers())
                .build()
        })
        .collect();
    bank_ddl(&conns[0])?;
    let mut prefix = Vec::with_capacity(sz.accounts as usize + 1);
    let mut groups = vec![(0i64, 0i64); BRANCHES as usize];
    let mut acc = 0i64;
    prefix.push(0);
    for id in 0..sz.accounts {
        let b = balance0(ctx.seed, id);
        acc += b;
        prefix.push(acc);
        let g = &mut groups[branch_of(id, BRANCHES) as usize];
        g.0 += 1;
        g.1 += b;
    }
    warm_bank_reads(&conns, sz.accounts, sz.warmup)?;
    Ok(World {
        conns,
        prefix,
        groups,
    })
}

/// The seeded op stream of one client, and its hash.
fn gen_ops(seed: u64, client: usize, sz: &Sizes, zipf: &Zipf) -> (Vec<Op>, u64) {
    let mut rng = Rng::fork(seed, client as u64);
    let classes = class_stream(&mut rng, &MIX, sz.ops_per_client);
    let n = sz.accounts as u64;
    let mut hash = StreamHash::default();
    let ops = classes
        .into_iter()
        .map(|c| {
            let op = match c {
                0 => {
                    // Rank → id through a fixed bijection, so the hot
                    // keys are scattered over the table, not clustered
                    // at its start.
                    let rank = zipf.sample(&mut rng);
                    Op::Point(((rank * 7919 + seed % n) % n) as i64)
                }
                1 => Op::Range(rng.below(n - RANGE_ROWS as u64) as i64),
                _ => Op::Mv,
            };
            match op {
                Op::Point(id) => hash.u64(id as u64),
                Op::Range(lo) => hash.u64(1 << 40 | lo as u64),
                Op::Mv => hash.u64(1 << 41),
            }
            op
        })
        .collect();
    (ops, hash.0)
}

#[cfg(test)]
pub fn stream_hash(seed: u64) -> u64 {
    let ctx = crate::test_ctx(seed, false);
    let sz = sizes(&ctx);
    gen_ops(seed, 0, &sz, &Zipf::new(sz.accounts as u64, ZIPF_THETA)).1
}

struct ClientResult {
    samples: [Samples; 3],
    done: u64,
    failures: Vec<String>,
    start: Instant,
    end: Instant,
}

/// What a correct result looks like, from the generator alone.
fn verify(op: Op, rows: &[Row], seed: u64, world: &World) -> Result<(), String> {
    match op {
        Op::Point(id) => {
            let want = [
                Datum::Int(id),
                Datum::Int(branch_of(id, BRANCHES)),
                Datum::Int(balance0(seed, id)),
            ];
            if rows.len() == 1 && rows[0] == want {
                Ok(())
            } else {
                Err(format!("point id={id}: got {rows:?}"))
            }
        }
        Op::Range(lo) => {
            let sum: i64 = rows.iter().filter_map(|r| r[1].as_int()).sum();
            let want = world.prefix[(lo + RANGE_ROWS) as usize] - world.prefix[lo as usize];
            let ids_ok = rows
                .iter()
                .enumerate()
                .all(|(i, r)| r[0] == Datum::Int(lo + i as i64));
            if rows.len() == RANGE_ROWS as usize && ids_ok && sum == want {
                Ok(())
            } else {
                Err(format!(
                    "range lo={lo}: {} rows, sum {sum}, want {want}",
                    rows.len()
                ))
            }
        }
        Op::Mv => {
            if mv_matches(rows, &world.groups) {
                Ok(())
            } else {
                Err(format!(
                    "mv read: {} rows do not match the generator",
                    rows.len()
                ))
            }
        }
    }
}

fn client_loop(
    ctx: &Ctx,
    client: usize,
    ops: &[Op],
    world: &World,
    barrier: &Barrier,
) -> Result<ClientResult, String> {
    let conn = &world.conns[client];
    let err = |e| format!("client {client} prepare: {e}");
    let point = conn.prepare(POINT_SQL).map_err(err)?;
    let range = conn.prepare(RANGE_SQL).map_err(err)?;
    let mv = conn.prepare(mv_read_sql(client)).map_err(err)?;
    let counts = |c: usize| ops.len() * MIX[c] as usize / 100 + 1;
    let mut samples = [
        Samples::with_capacity(counts(0)),
        Samples::with_capacity(counts(1)),
        Samples::with_capacity(counts(2)),
    ];
    let mut failures = vec![];
    let mut done = 0u64;
    barrier.wait();
    let start = Instant::now();
    let deadline = ctx.deadline(start);
    for op in ops {
        let t0 = Instant::now();
        if t0 >= deadline {
            break;
        }
        let (class, result) = match *op {
            Op::Point(id) => (0, point.bind(&[Datum::Int(id)]).and_then(|rs| rs.collect())),
            Op::Range(lo) => (
                1,
                range
                    .bind(&[Datum::Int(lo), Datum::Int(lo + RANGE_ROWS)])
                    .and_then(|rs| rs.collect()),
            ),
            Op::Mv => (2, mv.bind(&[]).and_then(|rs| rs.collect())),
        };
        samples[class].push(ns(t0.elapsed()));
        done += 1;
        let verdict = match &result {
            Ok(r) => verify(*op, &r.rows, ctx.seed, world),
            Err(e) => Err(format!("{} read failed: {e}", CLASSES[class])),
        };
        if let Err(msg) = verdict {
            failures.push(msg);
        }
    }
    let end = Instant::now();
    Ok(ClientResult {
        samples,
        done,
        failures,
        start,
        end,
    })
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let sz = sizes(ctx);
    let mut report = Report::default();
    let (world, setup_secs) = repeat_setup(ctx.setups(), || setup(ctx, &sz))?;
    check_bank_plans(
        &mut report,
        &world.conns[0],
        world.conns.last().expect("a client"),
    );
    let zipf = Zipf::new(sz.accounts as u64, ZIPF_THETA);
    let streams: Vec<Vec<Op>> = (0..sz.clients)
        .map(|c| gen_ops(ctx.seed, c, &sz, &zipf).0)
        .collect();

    // The front-door pass: all clients, closed loop, through `prepare` /
    // `bind` / `collect` only.
    let results = run_clients(&streams, |c, ops, barrier| {
        client_loop(ctx, c, ops, &world, barrier)
    })?;
    let start = results.iter().map(|r| r.start).min().expect("clients");
    let end = results.iter().map(|r| r.end).max().expect("clients");
    let mut classes: Vec<(&str, Samples)> = CLASSES
        .iter()
        .map(|c| (*c, Samples::with_capacity(sz.ops_per_client * sz.clients)))
        .collect();
    let mut done = 0;
    for r in results {
        done += r.done;
        for (i, s) in r.samples.iter().enumerate() {
            classes[i].1.extend(s);
        }
        report.merge_tally(r.done, r.failures);
    }
    let mut reads = Samples::with_capacity(done as usize);
    for (_, s) in &classes {
        reads.extend(s);
    }
    report.diag("ops_planned", (sz.ops_per_client * sz.clients) as f64);
    report.diag("clients", sz.clients as f64);
    set_common_metrics(
        &mut report,
        &setup_secs,
        done,
        end - start,
        &mut reads,
        &mut classes,
    );

    let mut spans = vec![];
    if ctx.trace {
        for (name, s) in &mut classes {
            let p50 = s.summary().map_or(0.0, |x| x.p50_us);
            report.set(&format!("point_read.{name}_p50_us"), p50);
        }
        spans = traced_pass(ctx, &sz, &world, &streams[0], &mut report)?;
    }
    report.set("peak_rss_mb", peak_rss_mb());
    Ok(Outcome { report, spans })
}

/// Replays every k-th op of client 0's stream in decomposed form:
/// `bind` then `collect` under spans, next to the same op run whole.
fn traced_pass(
    ctx: &Ctx,
    sz: &Sizes,
    world: &World,
    ops: &[Op],
    report: &mut Report,
) -> Result<Vec<Span>, String> {
    let conn = &world.conns[0];
    let err = |e| format!("traced pass: {e}");
    let point = conn.prepare(POINT_SQL).map_err(err)?;
    let range = conn.prepare(RANGE_SQL).map_err(err)?;
    let mv = conn.prepare(mv_read_sql(0)).map_err(err)?;
    let step = (ops.len() / sz.traced_ops).max(1);
    let tracer: SharedTracer = trace::shared(sz.traced_ops * 2 + 16);
    let mut whole_ns = 0u64;
    let pass_start = Instant::now();
    for op in ops.iter().step_by(step).take(sz.traced_ops) {
        let (stmt, params): (&rcalcite_sql::PreparedStatement<'_>, Vec<Datum>) = match *op {
            Op::Point(id) => (&point, vec![Datum::Int(id)]),
            Op::Range(lo) => (&range, vec![Datum::Int(lo), Datum::Int(lo + RANGE_ROWS)]),
            Op::Mv => (&mv, vec![]),
        };
        let t0 = Instant::now();
        let whole = stmt.bind(&params).and_then(|rs| rs.collect());
        whole_ns += ns(t0.elapsed());
        tracer.lock().expect("tracer lock").next_stmt();
        let bound = trace::span(&tracer, "sql.prepared.bind", || stmt.bind(&params));
        let drained =
            bound.and_then(|rs| trace::span(&tracer, "sql.prepared.drain", || rs.collect()));
        report.check(
            matches!((&whole, &drained), (Ok(a), Ok(b)) if a.rows == b.rows),
            || "decomposed read disagrees with the whole statement".to_string(),
        );
    }
    let pass_ns = ns(pass_start.elapsed());
    let spans = tracer.lock().expect("tracer lock").spans().to_vec();
    let selfs = trace::self_times(&spans);
    report.set(
        "sql.prepared.bind_us",
        median_self_us(&selfs, "sql.prepared.bind"),
    );
    report.set(
        "sql.prepared.drain_us",
        median_self_us(&selfs, "sql.prepared.drain"),
    );
    let traced_ns = trace::top_level_ns(&spans);
    set_trace_sanity(report, traced_ns, whole_ns, pass_ns, traced_ns);
    // Neither pass enters the front end or the planner: their share of
    // statement time on this workload is 0 by construction.
    report.diag("share.front_end_planner", 0.0);
    report.diag("share.commit_path", 0.0);

    // The executor under the point read, without bind's checks or the
    // cursor: the IndexSeek plan run straight through the context.
    let physical = conn
        .parse_to_rel(POINT_SQL)
        .and_then(|l| conn.optimize(&l))
        .map_err(err)?;
    let mut seek = Vec::with_capacity(sz.traced_ops);
    for op in ops
        .iter()
        .filter(|o| matches!(o, Op::Point(_)))
        .take(sz.traced_ops)
    {
        let Op::Point(id) = *op else { continue };
        let exec = conn.exec_context().with_params(vec![Datum::Int(id)]);
        let t0 = Instant::now();
        let rows = exec.execute_collect(&physical);
        seek.push(ns(t0.elapsed()));
        report.check(
            rows.as_ref()
                .is_ok_and(|r| verify(*op, r, ctx.seed, world).is_ok()),
            || format!("direct seek of id {id}: {rows:?}"),
        );
    }
    report.set("core.index.seek_us", median_us(&seek));
    Ok(spans)
}
