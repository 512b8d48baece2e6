//! The four workloads and what they share: the run context, the bank
//! schema two of them use, and small timing helpers.

pub mod adhoc_plan;
pub mod analytics;
pub mod mixed_rw;
pub mod point_read;

use crate::gen::mix;
use crate::report::Report;
use crate::stats::{geomean, median, Samples};
use crate::trace::{SelfTimes, Span};
use rcalcite_core::catalog::{Catalog, MemTable, Schema};
use rcalcite_core::datum::{Datum, Row};
use rcalcite_core::types::{RowTypeBuilder, TypeKind};
use rcalcite_sql::Connection;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Everything a workload is told about this run.
pub struct Ctx {
    pub seed: u64,
    /// How long the timed part should take on the reference box. Op
    /// counts are `seconds × a per-workload rate constant`, so the same
    /// seed always runs the same ops; a deadline at
    /// [`DEADLINE_FACTOR`]× stops a run on a much slower machine.
    pub seconds: f64,
    pub trace: bool,
    /// Test scale: tiny tables, a few hundred ops, every oracle on.
    pub quick: bool,
    /// `std::thread::available_parallelism()`.
    pub nproc: usize,
    /// Per-process scratch directory for WAL and spill files.
    pub tmp_dir: PathBuf,
}

/// The timed loop gives up at this multiple of `--seconds`; ops it did
/// not reach are neither attempted nor failed (`ops_planned` vs
/// `ops_done` in the diagnostics show the cut).
pub const DEADLINE_FACTOR: f64 = 2.5;

impl Ctx {
    /// Client threads of the two multi-client workloads: two, or one on
    /// a single core.
    pub fn clients(&self) -> usize {
        self.nproc.clamp(1, 2)
    }

    /// Executor workers, set explicitly on every connection.
    pub fn workers(&self) -> usize {
        self.nproc.clamp(1, 4)
    }

    /// Set-up repetitions: the untraced run reports the median of
    /// several so `setup_s` is steady; one is enough otherwise.
    pub fn setups(&self) -> usize {
        if self.trace || self.quick {
            1
        } else {
            5
        }
    }

    pub fn deadline(&self, start: Instant) -> Instant {
        start + Duration::from_secs_f64(self.seconds.max(0.5) * DEADLINE_FACTOR)
    }

    /// `rate × seconds` ops, or `quick_ops` at test scale.
    pub fn op_count(&self, rate_per_second: f64, quick_ops: usize) -> usize {
        if self.quick {
            quick_ops
        } else {
            ((rate_per_second * self.seconds) as usize).max(quick_ops)
        }
    }
}

pub struct Outcome {
    pub report: Report,
    /// Spans of the decomposed pass (`--trace 1` only).
    pub spans: Vec<Span>,
}

pub fn run(workload: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match workload {
        "point_read" => point_read::run(ctx),
        "mixed_rw" => mixed_rw::run(ctx),
        "analytics" => analytics::run(ctx),
        "adhoc_plan" => adhoc_plan::run(ctx),
        other => Err(format!("unknown workload '{other}' (try --list)")),
    }
}

/// One line per workload for `--list` (the same text `BENCHMARK.json`
/// carries as `why`).
pub const WHY: [(&str, &str); 4] = [
    (
        "point_read",
        "prepared point/range/MV reads, 2 clients, plan cache always hits: front end, planner and commit path idle",
    ),
    (
        "mixed_rw",
        "the same reads beside WAL-backed writes and transfers: commit path, DML planning and plan-cache invalidation",
    ),
    (
        "analytics",
        "seven prepared scan/join/sort shapes over 500k rows, in-memory and spilling: executor, exchanges, buffer",
    ),
    (
        "adhoc_plan",
        "unique-literal statements over tiny tables, 80 % plan-cache misses: lexer, parser, converter, planner",
    ),
];

// ---------------------------------------------------------------------
// Timing helpers
// ---------------------------------------------------------------------

pub fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Runs `setup` `k` times, dropping each world before building the
/// next, and returns the last world with every duration in seconds.
pub fn repeat_setup<W>(
    k: usize,
    mut setup: impl FnMut() -> Result<W, String>,
) -> Result<(W, Vec<f64>), String> {
    let mut secs = Vec::with_capacity(k);
    let mut world = None;
    for _ in 0..k.max(1) {
        drop(world.take());
        let t0 = Instant::now();
        world = Some(setup()?);
        secs.push(t0.elapsed().as_secs_f64());
    }
    Ok((world.expect("k >= 1"), secs))
}

/// The end-to-end metrics every workload reports the same way.
/// `classes` are (name, samples of whole-op latency); `reads` is every
/// read statement's bind → last row.
pub fn set_common_metrics(
    report: &mut Report,
    setup_secs: &[f64],
    ops_done: u64,
    wall: Duration,
    reads: &mut Samples,
    classes: &mut [(&str, Samples)],
) {
    report.set("setup_s", median(setup_secs));
    report.diag("setup.n", setup_secs.len() as f64);
    report.diag(
        "setup.max_s",
        setup_secs.iter().copied().fold(0.0, f64::max),
    );
    report.set("ops_per_s", ops_done as f64 / wall.as_secs_f64());
    report.diag("ops_done", ops_done as f64);
    report.diag("timed_wall_s", wall.as_secs_f64());
    if let Some(s) = reads.summary() {
        report.set("read_p50_us", s.p50_us);
        report.set("read_p95_us", s.p95_us);
        report.class_diag("read", &s);
    }
    let mut medians_ms = vec![];
    for (name, samples) in classes.iter_mut() {
        if let Some(s) = samples.summary() {
            medians_ms.push(s.p50_us / 1e3);
            report.class_diag(name, &s);
        }
    }
    if !medians_ms.is_empty() {
        report.set("query_geomean_ms", geomean(&medians_ms));
    }
}

/// `VmHWM` of this process, in MiB (0 where `/proc` has no such line).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of nanosecond samples, in microseconds (0 when empty).
pub fn median_us(ns: &[u64]) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    let v: Vec<f64> = ns.iter().map(|x| *x as f64 / 1e3).collect();
    median(&v)
}

/// Median self time of the spans called `name`, in microseconds.
pub fn median_self_us(selfs: &SelfTimes, name: &str) -> f64 {
    median_us(selfs.get(name).map_or(&[][..], Vec::as_slice))
}

/// One closed-loop client thread per op stream; all leave the barrier
/// together. Results come back in client order.
pub fn run_clients<O: Sync, R: Send>(
    streams: &[Vec<O>],
    client: impl Fn(usize, &[O], &Barrier) -> Result<R, String> + Sync,
) -> Result<Vec<R>, String> {
    let barrier = Barrier::new(streams.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(c, ops)| {
                let (barrier, client) = (&barrier, &client);
                s.spawn(move || client(c, ops, barrier))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect()
    })
}

/// The two sanity ratios every traced pass reports: how much of the
/// whole statements' time the spans account for, and what the decomposed
/// pass cost beyond its spans.
pub fn set_trace_sanity(
    report: &mut Report,
    traced_ns: u64,
    whole_ns: u64,
    pass_ns: u64,
    spans_ns: u64,
) {
    report.set("trace.coverage", traced_ns as f64 / whole_ns.max(1) as f64);
    report.set(
        "trace.overhead_ratio",
        pass_ns.saturating_sub(whole_ns) as f64 / spans_ns.max(1) as f64,
    );
}

/// Front-end layer metrics from `sql.lexer.tokenize`, `sql.parser.parse`
/// and `sql.converter.parse_to_rel` spans. `parse` tokenizes and
/// `parse_to_rel` parses, so a layer's own time is its call minus the
/// call it contains. `lexed_bytes` is the SQL text the lexer spans saw.
pub fn set_front_end_metrics(report: &mut Report, selfs: &SelfTimes, lexed_bytes: usize) {
    let lexer_us = median_self_us(selfs, "sql.lexer.tokenize");
    let parse_us = median_self_us(selfs, "sql.parser.parse");
    report.set("sql.lexer.us_per_stmt", lexer_us);
    let lexer_s = selfs
        .get("sql.lexer.tokenize")
        .map_or(0.0, |v| v.iter().sum::<u64>() as f64 / 1e9);
    if lexer_s > 0.0 {
        report.set("sql.lexer.mb_per_s", lexed_bytes as f64 / 1e6 / lexer_s);
    }
    report.set("sql.parser.us_per_stmt", (parse_us - lexer_us).max(0.0));
    report.set(
        "sql.converter.us_per_stmt",
        (median_self_us(selfs, "sql.converter.parse_to_rel") - parse_us).max(0.0),
    );
}

// ---------------------------------------------------------------------
// The bank schema (point_read, mixed_rw, adhoc_plan)
// ---------------------------------------------------------------------

pub const BRANCHES: i64 = 100;

/// Initial balance of account `id` under `seed` — the generator's side
/// of every read oracle.
pub fn balance0(seed: u64, id: i64) -> i64 {
    1000 + (mix(seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) % 9000) as i64
}

pub fn branch_of(id: i64, branches: i64) -> i64 {
    id % branches
}

/// `bank.accounts(id, branch, balance)` with ids `0..accounts`, and
/// `bank.branches(branch, name)`.
pub fn bank_catalog(seed: u64, accounts: i64, branches: i64) -> Arc<Catalog> {
    let catalog = Catalog::new();
    let s = Schema::new();
    s.add_table(
        "accounts",
        MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("id", TypeKind::Integer)
                .add_not_null("branch", TypeKind::Integer)
                .add_not_null("balance", TypeKind::Integer)
                .build(),
            (0..accounts)
                .map(|id| {
                    vec![
                        Datum::Int(id),
                        Datum::Int(branch_of(id, branches)),
                        Datum::Int(balance0(seed, id)),
                    ]
                })
                .collect(),
        ),
    );
    s.add_table(
        "branches",
        MemTable::new(
            RowTypeBuilder::new()
                .add_not_null("branch", TypeKind::Integer)
                .add_not_null("name", TypeKind::Varchar)
                .build(),
            (0..branches)
                .map(|b| vec![Datum::Int(b), Datum::str(format!("branch{b:03}"))])
                .collect(),
        ),
    );
    catalog.add_schema("bank", s);
    catalog
}

pub const CREATE_INDEX: &str = "CREATE INDEX acc_id ON accounts (id)";
pub const MV_DEFINITION: &str =
    "SELECT branch, COUNT(*) AS n, SUM(balance) AS total FROM accounts GROUP BY branch";
pub const MV_BY_NAME: &str = "SELECT branch, n, total FROM mv.by_branch";
pub const POINT_SQL: &str = "SELECT id, branch, balance FROM accounts WHERE id = ?";
pub const RANGE_SQL: &str = "SELECT id, balance FROM accounts WHERE id >= ? AND id < ?";
pub const RANGE_ROWS: i64 = 100;

/// The grouped-aggregate read of client `c`: the client whose
/// connection ran the DDL asks the defining query and is served by
/// substitution; the others read the view's storage by name.
pub fn mv_read_sql(client: usize) -> &'static str {
    if client == 0 {
        MV_DEFINITION
    } else {
        MV_BY_NAME
    }
}

/// Warm-up: every read statement compiled and run on every connection,
/// so the timed part starts with hot plan caches.
pub fn warm_bank_reads(conns: &[Connection], accounts: i64, rounds: usize) -> Result<(), String> {
    for (c, conn) in conns.iter().enumerate() {
        let err = |e| format!("warm-up on client {c}: {e}");
        let point = conn.prepare(POINT_SQL).map_err(err)?;
        let range = conn.prepare(RANGE_SQL).map_err(err)?;
        let mv = conn.prepare(mv_read_sql(c)).map_err(err)?;
        for i in 0..rounds as i64 {
            let id = (i * 7919) % (accounts - RANGE_ROWS);
            point.query(&[Datum::Int(id)]).map_err(err)?;
            if i % 8 == 0 {
                range
                    .query(&[Datum::Int(id), Datum::Int(id + RANGE_ROWS)])
                    .map_err(err)?;
                mv.query(&[]).map_err(err)?;
            }
        }
    }
    Ok(())
}

pub fn create_mv_sql() -> String {
    format!("CREATE MATERIALIZED VIEW by_branch AS {MV_DEFINITION}")
}

/// Runs a statement for its effect, mapping the error to text.
pub fn exec(conn: &Connection, sql: &str) -> Result<(), String> {
    conn.query(sql)
        .map(|_| ())
        .map_err(|e| format!("`{sql}`: {e}"))
}

/// Index, statistics and the maintained view, all through the front
/// door on `conn` — which thereby becomes the connection whose planner
/// knows the materialization.
pub fn bank_ddl(conn: &Connection) -> Result<(), String> {
    exec(conn, CREATE_INDEX)?;
    exec(conn, "ANALYZE")?;
    exec(conn, &create_mv_sql())
}

/// Set-up proof that the access paths are the intended ones: point and
/// range reads seek, point UPDATEs seek, and neither MV read touches
/// `accounts`.
pub fn check_bank_plans(report: &mut Report, owner: &Connection, other: &Connection) {
    let mut plan_has = |conn: &Connection, sql: &str, want: &str, present: bool| {
        let text = match conn.query(sql) {
            Ok(r) => r
                .rows
                .iter()
                .map(|row| row[0].to_string())
                .collect::<Vec<_>>()
                .join("\n"),
            Err(e) => format!("error: {e}"),
        };
        report.check(text.contains(want) == present, || {
            format!(
                "plan of `{sql}` should{} contain {want}:\n{text}",
                if present { "" } else { " not" }
            )
        });
    };
    plan_has(
        owner,
        &format!("EXPLAIN {}", POINT_SQL.replace('?', "7")),
        "IndexSeek",
        true,
    );
    plan_has(
        owner,
        "EXPLAIN SELECT id, balance FROM accounts WHERE id >= 7 AND id < 107",
        "IndexSeek",
        true,
    );
    plan_has(
        owner,
        "EXPLAIN UPDATE accounts SET balance = balance + 1 WHERE id = 7",
        "IndexSeek",
        true,
    );
    plan_has(
        owner,
        &format!("EXPLAIN {MV_DEFINITION}"),
        "bank.accounts",
        false,
    );
    plan_has(
        owner,
        &format!("EXPLAIN {MV_DEFINITION}"),
        "mv.by_branch",
        true,
    );
    plan_has(
        other,
        &format!("EXPLAIN {MV_BY_NAME}"),
        "bank.accounts",
        false,
    );
}

/// Whether `(branch, n, total)` rows are exactly `groups` (indexed by
/// branch; every branch present once). Allocation-free: it runs after
/// every MV read.
pub fn mv_matches(rows: &[Row], groups: &[(i64, i64)]) -> bool {
    rows.len() == groups.len()
        && rows.iter().all(|r| {
            let (Some(b), Some(n), Some(total)) = (
                r.first().and_then(Datum::as_int),
                r.get(1).and_then(Datum::as_int),
                r.get(2).and_then(Datum::as_int),
            ) else {
                return false;
            };
            usize::try_from(b)
                .ok()
                .and_then(|b| groups.get(b))
                .is_some_and(|g| *g == (n, total))
        })
}
