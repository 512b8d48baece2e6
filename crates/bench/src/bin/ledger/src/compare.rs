//! `ledger compare A.json B.json`: the A/A (and parent-vs-change)
//! report. Each file holds one or more run records as the ledger writes
//! them (`target/ledger/<workload>.json`), concatenated. Per workload ×
//! metric it prints both medians, the direction-aware change as a share
//! of A's median, the run-to-run spread on each side, and a verdict
//! against the bound `BENCHMARK.json` fixes.

use crate::json::{parse_all, Json};
use crate::metrics;
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;
use std::path::Path;

/// Bound for metrics `BENCHMARK.json` gives none (per-layer ones).
const DEFAULT_BOUND: f64 = 0.10;

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Worse,
    /// The spread on either side is wider than the bound: the runs
    /// cannot tell a change of that size from noise.
    Unresolved,
}

/// workload → metric → values, one per run.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(path: &Path) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut runs = Runs::new();
    for doc in parse_all(&text).map_err(|e| format!("{}: {e}", path.display()))? {
        // A file may also be one array of records.
        let records = match doc {
            Json::Arr(a) => a,
            other => vec![other],
        };
        for rec in records {
            let workload = rec
                .get("workload")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{}: record without \"workload\"", path.display()))?;
            let metrics = rec
                .get("metrics")
                .and_then(Json::as_obj)
                .ok_or_else(|| format!("{}: record without \"metrics\"", path.display()))?;
            let by_metric = runs.entry(workload.to_string()).or_default();
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    by_metric.entry(name.clone()).or_default().push(v);
                }
            }
        }
    }
    Ok(runs)
}

/// Interquartile range over the median; with fewer than four runs,
/// the full range over the median; 0 for a single run.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let (lo, hi) = if values.len() >= 4 {
        quartiles(values)
    } else {
        (
            values.iter().copied().fold(f64::INFINITY, f64::min),
            values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        )
    };
    (hi - lo) / m.abs()
}

/// How much worse `b` is than `a`, as a share of `a` (negative when
/// better), given the metric's direction.
pub fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    let change = (b - a) / a.abs();
    if higher_is_better {
        -change
    } else {
        change
    }
}

pub fn verdict(worse_by: f64, spread_a: f64, spread_b: f64, bound: f64) -> Verdict {
    if spread_a.max(spread_b) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// name → bound, from the `end_to_end` list of `BENCHMARK.json` in the
/// current directory (empty when there is none).
fn bounds() -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return out;
    };
    let Ok(docs) = parse_all(&text) else {
        return out;
    };
    for m in docs
        .first()
        .and_then(|d| d.get("end_to_end"))
        .and_then(Json::as_arr)
        .unwrap_or(&[])
    {
        if let (Some(n), Some(b)) = (
            m.get("name").and_then(Json::as_str),
            m.get("bound").and_then(Json::as_f64),
        ) {
            out.insert(n.to_string(), b);
        }
    }
    out
}

pub fn run(a: &Path, b: &Path) -> Result<bool, String> {
    let (ra, rb) = (load(a)?, load(b)?);
    let bounds = bounds();
    let direction: BTreeMap<String, bool> = metrics::end_to_end()
        .into_iter()
        .chain(metrics::per_layer())
        .map(|d| (d.name, d.higher_is_better))
        .collect();
    println!(
        "{:<11} {:<38} {:>14} {:>3} {:>14} {:>3} {:>9} {:>7} {:>8} {:>8}  verdict",
        "workload",
        "metric",
        "A median",
        "n",
        "B median",
        "n",
        "worse by",
        "bound",
        "spread A",
        "spread B"
    );
    let mut tally = BTreeMap::new();
    for (workload, ma) in &ra {
        let Some(mb) = rb.get(workload) else {
            println!("{workload:<11} only in {}", a.display());
            continue;
        };
        for (metric, va) in ma {
            let Some(vb) = mb.get(metric) else { continue };
            let (med_a, med_b) = (median(va), median(vb));
            // A layer the workload never enters prints 0 on both sides.
            if med_a == 0.0 && med_b == 0.0 {
                continue;
            }
            let higher = direction.get(metric).copied().unwrap_or(false);
            let bound = bounds.get(metric).copied().unwrap_or(DEFAULT_BOUND);
            let worse_by = worsening(med_a, med_b, higher);
            let (sa, sb) = (spread(va), spread(vb));
            let v = verdict(worse_by, sa, sb, bound);
            *tally.entry(format!("{v:?}")).or_insert(0usize) += 1;
            println!(
                "{workload:<11} {metric:<38} {med_a:>14.4} {:>3} {med_b:>14.4} {:>3} {:>+8.1}% {:>6.0}% {:>7.1}% {:>7.1}%  {}",
                va.len(),
                vb.len(),
                worse_by * 100.0,
                bound * 100.0,
                sa * 100.0,
                sb * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    println!(
        "-- 'worse by' is the direction-aware change of B's median as a share of A's median; spread is (Q3-Q1)/median per side"
    );
    println!("-- {tally:?}");
    Ok(!tally.contains_key("Worse"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_is_direction_aware_and_relative_to_a() {
        assert!((worsening(100.0, 110.0, false) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, true) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, true) - 0.10).abs() < 1e-12);
        assert_eq!(worsening(0.0, 5.0, false), 0.0);
    }

    #[test]
    fn verdicts() {
        assert_eq!(verdict(0.02, 0.01, 0.01, 0.05), Verdict::Ok);
        assert_eq!(verdict(-0.30, 0.01, 0.01, 0.05), Verdict::Ok);
        assert_eq!(verdict(0.08, 0.01, 0.01, 0.05), Verdict::Worse);
        assert_eq!(verdict(0.08, 0.07, 0.01, 0.05), Verdict::Unresolved);
        assert_eq!(verdict(0.00, 0.01, 0.09, 0.05), Verdict::Unresolved);
    }

    #[test]
    fn spread_uses_quartiles_from_four_runs_up() {
        assert_eq!(spread(&[5.0]), 0.0);
        assert!((spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn loads_concatenated_run_records() {
        let dir = crate::test_ctx(0, false)
            .tmp_dir
            .with_file_name(format!("test-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.json");
        let rec = |v: f64| {
            format!(
                "{{\"workload\":\"w\",\"metrics\":{{\"m\":{{\"value\":{v},\"unit\":\"us\"}}}}}}\n"
            )
        };
        std::fs::write(&path, rec(1.0) + &rec(3.0)).unwrap();
        let runs = load(&path).unwrap();
        assert_eq!(runs["w"]["m"], vec![1.0, 3.0]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
