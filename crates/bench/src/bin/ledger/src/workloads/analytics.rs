//! `analytics`: one client, seven prepared query shapes cycled over a
//! 500 k-row fact table with two dimensions — the executor supplies the
//! parallelism. The same join runs in memory and, on a second
//! connection with a memory budget smaller than its build side,
//! spilling; Figure 2's federated join rides along on the demo
//! federation. Plans come from the plan cache; nothing writes.

use super::*;
use crate::gen::{Rng, StreamHash};
use crate::metrics::{PARALLEL_SHAPES, SHAPES};
use crate::trace::{self, SharedTracer};
use rcalcite_adapters::demo::{build_federation, Federation};

/// Cycles (one execution of each shape) per second of `--seconds`.
const RATE: f64 = 1.1;
/// Bindings per shape, cycled.
const BINDINGS: usize = 4;
const DAYS: i64 = 365;
const REGIONS: i64 = 20;
const STORES: i64 = 100;
/// Day windows are of fixed width and seeded position, so every seed
/// (and every binding) selects the same share of the fact table: half of
/// it for `q_agg`, a fifth for the join's probe side.
const AGG_WINDOW: i64 = 180;
const JOIN_WINDOW: i64 = 73;
/// Budget of the spilling connection. The join's build side (products)
/// is accounted at ≈30 B/row, so 50 k products ≈ 1.5 MB: above this
/// budget, and a 4 MiB budget would never spill at this table size.
const SPILL_BUDGET: usize = 1 << 20;
const QUICK_SPILL_BUDGET: usize = 64 << 10;

const Q_FILTER: &str = "SELECT id, amount FROM sales WHERE day = ? AND region_id = ?";
const Q_AGG: &str = "SELECT store_id, COUNT(*) AS c, SUM(amount) AS total FROM sales \
                     WHERE day >= ? AND day < ? GROUP BY store_id";
const Q_JOIN_AGG: &str = "SELECT p.name, COUNT(*) AS c \
                          FROM sales s JOIN products p ON s.product_id = p.product_id \
                          WHERE s.discount IS NOT NULL AND s.day >= ? AND s.day < ? \
                          GROUP BY p.name ORDER BY c DESC, p.name";
const Q_TOPK: &str = "SELECT id, amount FROM sales WHERE region_id = ? \
                      ORDER BY amount DESC, id LIMIT 100";
const Q_SORT: &str = "SELECT id, amount FROM sales WHERE id >= ? AND id < ? ORDER BY amount, id";

/// Span names of the decomposed pass, parallel to [`SHAPES`].
const EXEC_SPANS: [&str; 7] = [
    "enumerable.exec.q_filter",
    "enumerable.exec.q_agg",
    "enumerable.exec.q_join_agg",
    "enumerable.exec.q_topk",
    "enumerable.exec.q_sort",
    "enumerable.exec.q_join_spill",
    "enumerable.exec.q_federated",
];

fn fig2_sql(units_above: i64) -> String {
    format!(
        "SELECT o.rowtime, p.name FROM orders o JOIN mysql.products p \
         ON o.productid = p.productid WHERE o.units > {units_above}"
    )
}

struct Sizes {
    sales: i64,
    products: i64,
    sort_slice: i64,
    orders: usize,
    spill_budget: usize,
    cycles: usize,
    trace_reps: usize,
}

fn sizes(ctx: &Ctx) -> Sizes {
    let share = if ctx.trace { 0.3 } else { 1.0 };
    Sizes {
        sales: if ctx.quick { 60_000 } else { 500_000 },
        products: if ctx.quick { 5_000 } else { 50_000 },
        sort_slice: if ctx.quick { 8_000 } else { 200_000 },
        orders: if ctx.quick { 2_000 } else { 50_000 },
        spill_budget: if ctx.quick {
            QUICK_SPILL_BUDGET
        } else {
            SPILL_BUDGET
        },
        cycles: ctx.op_count(RATE * share, 2),
        trace_reps: ctx.op_count(0.3, 1),
    }
}

/// One fact row, straight from the generator.
struct Sale {
    product_id: i64,
    region_id: i64,
    store_id: i64,
    day: i64,
    amount: i64,
    discount: Option<i64>,
}

fn sale(seed: u64, id: i64, products: i64) -> Sale {
    let h = mix(seed.wrapping_mul(31) ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    Sale {
        product_id: (h % products as u64) as i64,
        region_id: ((h >> 17) % REGIONS as u64) as i64,
        store_id: ((h >> 23) % STORES as u64) as i64,
        day: ((h >> 31) % DAYS as u64) as i64,
        amount: 100 + ((h >> 7) % 99_900) as i64,
        // 30 % NULL, as Figure 4's `discount IS NOT NULL` wants.
        discount: (h % 10 >= 3).then_some(((h >> 3) % 30) as i64),
    }
}

fn product_name(id: i64) -> String {
    format!("product{id:06}")
}

fn mart_catalog(seed: u64, sz: &Sizes) -> Arc<Catalog> {
    let catalog = Catalog::new();
    let s = Schema::new();
    s.add_table(
        "sales",
        MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("id", TypeKind::Integer)
                .add_not_null("product_id", TypeKind::Integer)
                .add_not_null("region_id", TypeKind::Integer)
                .add_not_null("store_id", TypeKind::Integer)
                .add_not_null("day", TypeKind::Integer)
                .add_not_null("amount", TypeKind::Integer)
                .add("discount", TypeKind::Integer)
                .build(),
            (0..sz.sales)
                .map(|id| {
                    let r = sale(seed, id, sz.products);
                    vec![
                        Datum::Int(id),
                        Datum::Int(r.product_id),
                        Datum::Int(r.region_id),
                        Datum::Int(r.store_id),
                        Datum::Int(r.day),
                        Datum::Int(r.amount),
                        r.discount.map_or(Datum::Null, Datum::Int),
                    ]
                })
                .collect(),
        ),
    );
    s.add_table(
        "products",
        MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("product_id", TypeKind::Integer)
                .add_not_null("name", TypeKind::Varchar)
                .add_not_null("category", TypeKind::Integer)
                .build(),
            (0..sz.products)
                .map(|id| {
                    vec![
                        Datum::Int(id),
                        Datum::str(product_name(id)),
                        Datum::Int(id % 50),
                    ]
                })
                .collect(),
        ),
    );
    s.add_table(
        "regions",
        MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("region_id", TypeKind::Integer)
                .add_not_null("name", TypeKind::Varchar)
                .build(),
            (0..REGIONS)
                .map(|id| vec![Datum::Int(id), Datum::str(format!("region{id:02}"))])
                .collect(),
        ),
    );
    catalog.add_schema("mart", s);
    catalog
}

/// The seeded bindings: `BINDINGS` parameter sets per shape.
struct Bindings {
    filter: Vec<(i64, i64)>,
    agg_day: Vec<i64>,
    join_day: Vec<i64>,
    topk_region: Vec<i64>,
    sort_lo: Vec<i64>,
    fed_units: Vec<i64>,
}

fn gen_bindings(seed: u64, sz: &Sizes) -> (Bindings, u64) {
    let mut rng = Rng::fork(seed, 40);
    let mut draw =
        |n: i64| -> Vec<i64> { (0..BINDINGS).map(|_| rng.below(n as u64) as i64).collect() };
    let b = Bindings {
        filter: draw(DAYS).into_iter().zip(draw(REGIONS)).collect(),
        agg_day: draw(DAYS - AGG_WINDOW),
        join_day: draw(DAYS - JOIN_WINDOW),
        topk_region: draw(REGIONS),
        sort_lo: draw(sz.sales - sz.sort_slice),
        // Figure 2 as the paper writes it (`units > 45`) and its
        // neighbours; literals, since the adapters push literals down.
        fed_units: (0..BINDINGS as i64).map(|i| 45 + i).collect(),
    };
    let mut h = StreamHash::default();
    for (d, r) in &b.filter {
        h.u64(*d as u64);
        h.u64(*r as u64);
    }
    for v in [&b.agg_day, &b.join_day, &b.topk_region, &b.sort_lo] {
        for x in v {
            h.u64(*x as u64);
        }
    }
    (b, h.0)
}

#[cfg(test)]
pub fn stream_hash(seed: u64) -> u64 {
    let ctx = crate::test_ctx(seed, false);
    gen_bindings(seed, &sizes(&ctx)).1
}

fn params(shape: usize, b: &Bindings, k: usize, sz: &Sizes) -> Vec<Datum> {
    match shape {
        0 => vec![Datum::Int(b.filter[k].0), Datum::Int(b.filter[k].1)],
        1 => vec![
            Datum::Int(b.agg_day[k]),
            Datum::Int(b.agg_day[k] + AGG_WINDOW),
        ],
        2 | 5 => vec![
            Datum::Int(b.join_day[k]),
            Datum::Int(b.join_day[k] + JOIN_WINDOW),
        ],
        3 => vec![Datum::Int(b.topk_region[k])],
        4 => vec![
            Datum::Int(b.sort_lo[k]),
            Datum::Int(b.sort_lo[k] + sz.sort_slice),
        ],
        _ => vec![],
    }
}

// ---------------------------------------------------------------------
// The oracle: count + checksum per (shape, binding), by a plain fold
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digest {
    rows: usize,
    sum: u64,
}

fn datum_hash(d: &Datum) -> u64 {
    match d {
        Datum::Null => 3,
        Datum::Int(v) => mix(*v as u64 ^ 0x11),
        Datum::Timestamp(v) => mix(*v as u64 ^ 0x22),
        Datum::Double(v) => mix(v.to_bits() ^ 0x33),
        Datum::Str(s) => {
            let mut h = StreamHash::default();
            h.bytes(s.as_bytes());
            h.0
        }
        other => {
            let mut h = StreamHash::default();
            h.bytes(other.to_string().as_bytes());
            h.0
        }
    }
}

fn row_hash(row: &[Datum]) -> u64 {
    row.iter().fold(0x51_7C_C1_B7, |h: u64, d| {
        mix(h.wrapping_mul(31) ^ datum_hash(d))
    })
}

/// `ordered`: the query has an ORDER BY over a total order, so position
/// is part of the answer; otherwise rows are a multiset.
fn digest<'a>(rows: impl IntoIterator<Item = &'a Row>, ordered: bool) -> Digest {
    let mut d = Digest { rows: 0, sum: 0 };
    for r in rows {
        d.rows += 1;
        let h = row_hash(r);
        d.sum = d.sum.wrapping_add(if ordered {
            h.wrapping_mul(d.rows as u64 | 1)
        } else {
            h
        });
    }
    d
}

const ORDERED: [bool; 7] = [false, false, true, true, true, true, false];

fn expected(seed: u64, sz: &Sizes, b: &Bindings) -> Vec<Vec<Digest>> {
    let sales: Vec<Sale> = (0..sz.sales)
        .map(|id| sale(seed, id, sz.products))
        .collect();
    let int_row = |vals: &[i64]| -> Row { vals.iter().map(|v| Datum::Int(*v)).collect() };
    let mut out: Vec<Vec<Digest>> = vec![];
    // q_filter
    out.push(
        b.filter
            .iter()
            .map(|(day, region)| {
                let rows: Vec<Row> = sales
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.day == *day && s.region_id == *region)
                    .map(|(id, s)| int_row(&[id as i64, s.amount]))
                    .collect();
                digest(&rows, false)
            })
            .collect(),
    );
    // q_agg
    out.push(
        b.agg_day
            .iter()
            .map(|day| {
                let mut groups = vec![(0i64, 0i64); STORES as usize];
                for s in sales
                    .iter()
                    .filter(|s| s.day >= *day && s.day < *day + AGG_WINDOW)
                {
                    groups[s.store_id as usize].0 += 1;
                    groups[s.store_id as usize].1 += s.amount;
                }
                let rows: Vec<Row> = groups
                    .iter()
                    .enumerate()
                    .filter(|(_, g)| g.0 > 0)
                    .map(|(store, g)| int_row(&[store as i64, g.0, g.1]))
                    .collect();
                digest(&rows, false)
            })
            .collect(),
    );
    // q_join_agg (and, identically, q_join_spill)
    let join: Vec<Digest> = b
        .join_day
        .iter()
        .map(|day| {
            let mut counts = vec![0i64; sz.products as usize];
            for s in sales
                .iter()
                .filter(|s| s.discount.is_some() && s.day >= *day && s.day < *day + JOIN_WINDOW)
            {
                counts[s.product_id as usize] += 1;
            }
            // ORDER BY c DESC, name: names are zero-padded, so name
            // order is id order.
            let mut groups: Vec<(i64, i64)> = counts
                .into_iter()
                .enumerate()
                .filter(|(_, c)| *c > 0)
                .map(|(id, c)| (-c, id as i64))
                .collect();
            groups.sort_unstable();
            let rows: Vec<Row> = groups
                .into_iter()
                .map(|(neg_c, id)| vec![Datum::str(product_name(id)), Datum::Int(-neg_c)])
                .collect();
            digest(&rows, true)
        })
        .collect();
    out.push(join.clone());
    // q_topk
    out.push(
        b.topk_region
            .iter()
            .map(|region| {
                let mut hits: Vec<(i64, i64)> = sales
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.region_id == *region)
                    .map(|(id, s)| (-s.amount, id as i64))
                    .collect();
                hits.sort_unstable();
                let rows: Vec<Row> = hits
                    .into_iter()
                    .take(100)
                    .map(|(neg, id)| int_row(&[id, -neg]))
                    .collect();
                digest(&rows, true)
            })
            .collect(),
    );
    // q_sort
    out.push(
        b.sort_lo
            .iter()
            .map(|lo| {
                let mut slice: Vec<(i64, i64)> = (*lo..*lo + sz.sort_slice)
                    .map(|id| (sales[id as usize].amount, id))
                    .collect();
                slice.sort_unstable();
                let rows: Vec<Row> = slice
                    .into_iter()
                    .map(|(amount, id)| int_row(&[id, amount]))
                    .collect();
                digest(&rows, true)
            })
            .collect(),
    );
    out.push(join);
    // q_federated: the demo federation's data is a fixed function of the
    // row number (see `adapters::demo`).
    out.push(
        b.fed_units
            .iter()
            .map(|above| {
                let rows: Vec<Row> = (0..sz.orders as i64)
                    .filter(|i| (i % 50) + 1 > *above)
                    .map(|i| {
                        vec![
                            Datum::Timestamp(i * 1_000),
                            Datum::str(format!("product{}", i % 100)),
                        ]
                    })
                    .collect();
                digest(&rows, false)
            })
            .collect(),
    );
    out
}

// ---------------------------------------------------------------------
// World
// ---------------------------------------------------------------------

struct World {
    /// workers = min(nproc, 4), unbounded memory.
    conn: Connection,
    /// Same catalog, memory budget below the join's build side.
    spill: Connection,
    /// Same catalog, workers = 1: the serial reference.
    serial: Connection,
    fed: Federation,
    analyze_s: f64,
}

impl World {
    fn conn_for(&self, shape: usize) -> &Connection {
        match shape {
            5 => &self.spill,
            6 => &self.fed.conn,
            _ => &self.conn,
        }
    }
}

fn shape_sql(shape: usize, b: &Bindings, k: usize) -> String {
    match shape {
        0 => Q_FILTER.into(),
        1 => Q_AGG.into(),
        2 | 5 => Q_JOIN_AGG.into(),
        3 => Q_TOPK.into(),
        4 => Q_SORT.into(),
        _ => fig2_sql(b.fed_units[k]),
    }
}

fn setup(ctx: &Ctx, sz: &Sizes, b: &Bindings) -> Result<World, String> {
    let catalog = mart_catalog(ctx.seed, sz);
    let build = |workers: usize| Connection::builder(catalog.clone()).workers(workers);
    let conn = build(ctx.workers()).build();
    let t0 = Instant::now();
    exec(&conn, "ANALYZE")?;
    let analyze_s = t0.elapsed().as_secs_f64();
    let world = World {
        conn,
        spill: build(ctx.workers()).memory_budget(sz.spill_budget).build(),
        serial: build(1).build(),
        fed: build_federation(sz.orders, 100),
        analyze_s,
    };
    // Warm-up: every (shape, binding) text compiled, every shape run once.
    for (shape, name) in SHAPES.iter().enumerate() {
        for k in 0..BINDINGS {
            let sql = shape_sql(shape, b, k);
            let stmt = world
                .conn_for(shape)
                .prepare(&sql)
                .map_err(|e| format!("prepare {name}: {e}"))?;
            if k == 0 {
                stmt.query(&params(shape, b, k, sz))
                    .map_err(|e| format!("warm-up {name}: {e}"))?;
            }
        }
    }
    Ok(world)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let sz = sizes(ctx);
    let mut report = Report::default();
    let (b, _) = gen_bindings(ctx.seed, &sz);
    let (world, setup_secs) = repeat_setup(ctx.setups(), || setup(ctx, &sz, &b))?;
    let want = expected(ctx.seed, &sz, &b);

    // Statements prepared once per (shape, binding) — plan-cache hits.
    let mut stmts = vec![];
    for (shape, name) in SHAPES.iter().enumerate() {
        let mut per_binding = vec![];
        for k in 0..BINDINGS {
            per_binding.push(
                world
                    .conn_for(shape)
                    .prepare(&shape_sql(shape, &b, k))
                    .map_err(|e| format!("prepare {name}: {e}"))?,
            );
        }
        stmts.push(per_binding);
    }
    let mut classes: Vec<(&str, Samples)> = SHAPES
        .iter()
        .map(|s| (*s, Samples::with_capacity(sz.cycles)))
        .collect();
    let mut done = 0u64;
    let start = Instant::now();
    let deadline = ctx.deadline(start);
    'timed: for cycle in 0..sz.cycles {
        let k = cycle % BINDINGS;
        for shape in 0..SHAPES.len() {
            let p = params(shape, &b, k, &sz);
            let t0 = Instant::now();
            if t0 >= deadline {
                break 'timed;
            }
            let result = stmts[shape][k].bind(&p).and_then(|rs| rs.collect());
            classes[shape].1.push(ns(t0.elapsed()));
            done += 1;
            let got = result
                .as_ref()
                .map(|q| digest(&q.rows, ORDERED[shape]))
                .map_err(ToString::to_string);
            report.check(got.as_ref() == Ok(&want[shape][k]), || {
                format!(
                    "{} binding {k}: got {got:?}, the generator implies {:?}",
                    SHAPES[shape], want[shape][k]
                )
            });
        }
    }
    let wall = start.elapsed();

    // workers = 1 and workers = nproc agree: the serial connection must
    // produce the generator's digest too (first binding of each shape on
    // the shared catalog; the federation has one connection).
    for shape in 0..5 {
        let got = world
            .serial
            .prepare(&shape_sql(shape, &b, 0))
            .and_then(|s| s.query(&params(shape, &b, 0, &sz)))
            .map(|q| digest(&q.rows, ORDERED[shape]))
            .map_err(|e| e.to_string());
        report.check(got.as_ref() == Ok(&want[shape][0]), || {
            format!(
                "{} at workers=1: got {got:?}, want {:?}",
                SHAPES[shape], want[shape][0]
            )
        });
    }

    let mut reads = Samples::with_capacity(done as usize);
    for (_, s) in &classes {
        reads.extend(s);
    }
    report.diag("cycles_planned", sz.cycles as f64);
    report.diag("workers", ctx.workers() as f64);
    report.set("core.stats.analyze_s", world.analyze_s);
    set_common_metrics(
        &mut report,
        &setup_secs,
        done,
        wall,
        &mut reads,
        &mut classes,
    );

    let mut spans = vec![];
    if ctx.trace {
        drop(stmts);
        spans = traced_pass(&sz, &world, &b, &want, &mut report)?;
    }
    report.set("peak_rss_mb", peak_rss_mb());
    Ok(Outcome { report, spans })
}

/// Each shape's cached physical plan run straight through the execution
/// context, under a span, next to the same statement run whole.
fn traced_pass(
    sz: &Sizes,
    world: &World,
    b: &Bindings,
    want: &[Vec<Digest>],
    report: &mut Report,
) -> Result<Vec<Span>, String> {
    let tracer: SharedTracer = trace::shared(SHAPES.len() * sz.trace_reps * 2 + 16);
    let plan = |conn: &Connection, sql: &str| {
        conn.parse_to_rel(sql)
            .and_then(|l| conn.optimize(&l))
            .map_err(|e| format!("plan `{sql}`: {e}"))
    };
    let time_exec = |conn: &Connection, physical: &rcalcite_core::rel::Rel, p: &[Datum]| {
        let exec = conn.exec_context().with_params(p.to_vec());
        let t0 = Instant::now();
        let rows = exec.execute_collect(physical);
        (ns(t0.elapsed()), rows)
    };
    let mut whole_ns = 0u64;
    let mut exec_ms = [0.0f64; 7];
    let pass_start = Instant::now();
    for shape in 0..SHAPES.len() {
        let conn = world.conn_for(shape);
        let sql = shape_sql(shape, b, 0);
        let p = params(shape, b, 0, sz);
        let physical = plan(conn, &sql)?;
        let stmt = conn.prepare(&sql).map_err(|e| e.to_string())?;
        let spill_before = (
            conn.spill_stats().bytes_written(),
            conn.spill_stats().runs(),
        );
        let mut samples = vec![];
        for _ in 0..sz.trace_reps {
            let t0 = Instant::now();
            let whole = stmt.bind(&p).and_then(|rs| rs.collect());
            whole_ns += ns(t0.elapsed());
            tracer.lock().expect("tracer lock").next_stmt();
            let exec = conn.exec_context().with_params(p.clone());
            let t0 = Instant::now();
            let rows = trace::span(&tracer, EXEC_SPANS[shape], || {
                exec.execute_collect(&physical)
            });
            samples.push(ns(t0.elapsed()));
            let got = rows.as_ref().map(|r| digest(r, ORDERED[shape]));
            report.check(
                got.as_ref().is_ok_and(|d| *d == want[shape][0])
                    && whole.is_ok_and(|q| digest(&q.rows, ORDERED[shape]) == want[shape][0]),
                || format!("traced {}: got {got:?}", SHAPES[shape]),
            );
        }
        exec_ms[shape] = median_us(&samples) / 1e3;
        report.set(
            &format!("enumerable.exec_ms.{}", SHAPES[shape]),
            exec_ms[shape],
        );
        if shape == 5 {
            // Per execution (whole and decomposed each ran once per rep).
            let execs = (sz.trace_reps * 2) as f64;
            let bytes = conn.spill_stats().bytes_written() - spill_before.0;
            report.set("core.buffer.spill_bytes", bytes as f64 / execs);
            report.set(
                "core.buffer.spill_runs",
                (conn.spill_stats().runs() - spill_before.1) as f64 / execs,
            );
            report.check(bytes > 0, || {
                format!(
                    "q_join_spill never spilled under a {} B budget",
                    sz.spill_budget
                )
            });
        }
    }
    let pass_ns = ns(pass_start.elapsed());
    let spans = tracer.lock().expect("tracer lock").spans().to_vec();
    let traced_ns = trace::top_level_ns(&spans);
    set_trace_sanity(report, traced_ns, whole_ns, pass_ns, traced_ns);
    report.diag("share.front_end_planner", 0.0);
    report.diag("share.commit_path", 0.0);
    report.set(
        "enumerable.scan_mrows_per_s",
        sz.sales as f64 / 1e6 / (exec_ms[0] / 1e3),
    );
    report.set("core.buffer.spill_slowdown", exec_ms[5] / exec_ms[2]);

    // Exchange parallelism: the same plan at workers = 1.
    for name in PARALLEL_SHAPES {
        let shape = SHAPES.iter().position(|s| *s == name).expect("a shape");
        let physical = plan(&world.serial, &shape_sql(shape, b, 0))?;
        let p = params(shape, b, 0, sz);
        let mut samples = vec![];
        for _ in 0..sz.trace_reps {
            let (dt, rows) = time_exec(&world.serial, &physical, &p);
            samples.push(dt);
            report.check(
                rows.is_ok_and(|r| digest(&r, ORDERED[shape]) == want[shape][0]),
                || format!("{name} at workers=1 disagrees with the generator"),
            );
        }
        let serial_ms = median_us(&samples) / 1e3;
        report.set(
            &format!("core.exec.parallel_speedup.{name}"),
            serial_ms / exec_ms[shape],
        );
        report.diag(&format!("serial_exec_ms.{name}"), serial_ms);
    }

    // Adapter push-down: the plan the optimizer chose for Figure 2
    // against the same logical plan interpreted as written (everything
    // pulled into the engine, nothing pushed to the sources).
    let fed = &world.fed.conn;
    let logical = fed
        .parse_to_rel(&fig2_sql(b.fed_units[0]))
        .map_err(|e| e.to_string())?;
    let mut interp = rcalcite_core::exec::ExecContext::new();
    rcalcite_enumerable::register_executors(&mut interp);
    let mut naive = vec![];
    for _ in 0..sz.trace_reps {
        let t0 = Instant::now();
        let rows = interp.execute_collect(&logical);
        naive.push(ns(t0.elapsed()));
        report.check(rows.is_ok_and(|r| digest(&r, false) == want[6][0]), || {
            "Figure 2 interpreted naively disagrees with the generator".to_string()
        });
    }
    report.set(
        "adapters.pushdown_speedup",
        median_us(&naive) / 1e3 / exec_ms[6],
    );
    Ok(spans)
}
