//! The metric catalog: every name the ledger can print, with its unit
//! and direction. `BENCHMARK.json` lists the same names; a unit test
//! keeps the two in step.

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

fn lower(name: &str, unit: &'static str) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        higher_is_better: false,
    }
}

fn higher(name: &str, unit: &'static str) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        higher_is_better: true,
    }
}

/// Statement families of `adhoc_plan`, in class-index order.
pub const FAMILIES: [&str; 10] = [
    "point",
    "agg",
    "join2",
    "join4",
    "join6",
    "subquery",
    "setop",
    "window",
    "mv_subst",
    "federated",
];

/// Query shapes of `analytics`, in cycle order.
pub const SHAPES: [&str; 7] = [
    "q_filter",
    "q_agg",
    "q_join_agg",
    "q_topk",
    "q_sort",
    "q_join_spill",
    "q_federated",
];

/// Shapes whose plans place exchanges, measured at workers 1 vs nproc.
pub const PARALLEL_SHAPES: [&str; 3] = ["q_agg", "q_join_agg", "q_sort"];

/// What a user of the engine sees, on every workload. Printed by the
/// untraced run.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        lower("setup_s", "s"),
        higher("ops_per_s", "1/s"),
        lower("read_p50_us", "us"),
        lower("read_p95_us", "us"),
        lower("query_geomean_ms", "ms"),
        lower("peak_rss_mb", "MiB"),
    ]
}

/// Single-layer numbers from the `--trace 1` run. A metric whose layer a
/// workload never enters reads 0 there.
pub fn per_layer() -> Vec<MetricDef> {
    let mut m = vec![
        lower("sql.lexer.us_per_stmt", "us"),
        higher("sql.lexer.mb_per_s", "MB/s"),
        lower("sql.parser.us_per_stmt", "us"),
        lower("sql.converter.us_per_stmt", "us"),
    ];
    for f in FAMILIES {
        m.push(lower(&format!("core.planner.optimize_us.{f}"), "us"));
    }
    m.extend([
        lower("sql.plan_cache.hit_us", "us"),
        higher("sql.plan_cache.hot_hit_ratio", "ratio"),
        lower("sql.plan_cache.read_after_write_us", "us"),
        lower("sql.plan_cache.read_after_read_us", "us"),
        lower("sql.prepared.bind_us", "us"),
        lower("sql.prepared.drain_us", "us"),
        lower("core.index.seek_us", "us"),
        lower("point_read.point_p50_us", "us"),
        lower("point_read.range_p50_us", "us"),
        lower("point_read.mv_p50_us", "us"),
    ]);
    for s in SHAPES {
        m.push(lower(&format!("enumerable.exec_ms.{s}"), "ms"));
    }
    m.push(higher("enumerable.scan_mrows_per_s", "Mrows/s"));
    for s in PARALLEL_SHAPES {
        m.push(higher(&format!("core.exec.parallel_speedup.{s}"), "ratio"));
    }
    m.extend([
        lower("core.buffer.spill_bytes", "bytes"),
        lower("core.buffer.spill_runs", "count"),
        lower("core.buffer.spill_slowdown", "ratio"),
        lower("core.txn.begin_us", "us"),
        lower("core.txn.stage_us", "us"),
        lower("core.txn.commit_us", "us"),
        lower("core.txn.stmt_in_txn_us", "us"),
        lower("core.txn.conflicts", "count"),
        lower("core.txn.retries", "count"),
        lower("mixed_rw.insert_p50_us", "us"),
        lower("mixed_rw.update_p50_us", "us"),
        lower("mixed_rw.delete_p50_us", "us"),
        lower("core.wal.append_us", "us"),
        lower("core.wal.sync_us", "us"),
        lower("core.wal.syncs_per_commit", "count"),
        lower("core.wal.bytes_per_commit", "bytes"),
        lower("core.wal.log_bytes", "bytes"),
        lower("core.wal.replay_us_per_txn", "us"),
        lower("core.index.maintain_us", "us"),
        lower("core.ivm.maintain_us", "us"),
        lower("core.ivm.served_read_us", "us"),
        lower("core.ivm.base_read_us", "us"),
        lower("core.stats.analyze_s", "s"),
        higher("adapters.pushdown_speedup", "ratio"),
        higher("trace.coverage", "ratio"),
        lower("trace.overhead_ratio", "ratio"),
        // Class-specific latencies the issue listed as end-to-end. The
        // benchmark contract prints every end-to-end metric on every
        // workload and allows none to be 0, and three of the four
        // workloads have no write, transaction, planning or recovery
        // step to measure — so these ride here, unbounded (see README).
        lower("write_p50_us", "us"),
        lower("write_p95_us", "us"),
        lower("txn_p50_us", "us"),
        lower("txn_p95_us", "us"),
        lower("plan_geomean_us", "us"),
        lower("plan_p95_us", "us"),
        lower("recovery_s", "s"),
    ]);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse_all, Json};

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let f = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (f("name"), f("unit"), f("better"))
            })
            .collect()
    }

    fn catalog(defs: Vec<MetricDef>) -> Vec<(String, String, String)> {
        defs.into_iter()
            .map(|d| {
                let better = if d.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                (d.name, d.unit.to_string(), better.to_string())
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_this_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = parse_all(&text).unwrap().remove(0);
        assert_eq!(listed(&doc, "end_to_end"), catalog(end_to_end()));
        assert_eq!(listed(&doc, "per_layer"), catalog(per_layer()));
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::workloads::WHY.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn names_are_unique_and_within_contract_limits() {
        let all: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
        assert!(per_layer().len() <= 128 && end_to_end().len() <= 16);
        let mut seen = std::collections::BTreeSet::new();
        for d in &all {
            assert!(seen.insert(d.name.clone()), "duplicate {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }
}
