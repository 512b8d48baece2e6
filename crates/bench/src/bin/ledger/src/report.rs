//! What one run produces: the contract's metrics, diagnostics beside
//! them, and the attempted/failed tally every oracle feeds.

use crate::json::Json;
use crate::stats::Summary;
use std::collections::BTreeMap;

#[derive(Default)]
pub struct Report {
    /// Top-level ops plus end-of-run checks.
    pub attempted: u64,
    /// Ops that errored, exhausted retries, or failed a correctness check.
    pub failed: u64,
    /// Catalog metrics (end-to-end or per-layer), by name.
    pub values: BTreeMap<String, f64>,
    /// Everything else worth keeping: p99/max and sample counts per
    /// class, sizes, counters. Not bounded, not compared by the driver.
    pub diagnostics: BTreeMap<String, f64>,
    /// The first few failure messages, for the human reading the file.
    pub failures: Vec<String>,
}

const MAX_FAILURE_NOTES: usize = 20;

impl Report {
    pub fn set(&mut self, name: &str, v: f64) {
        self.values.insert(name.to_string(), v);
    }

    pub fn diag(&mut self, name: &str, v: f64) {
        self.diagnostics.insert(name.to_string(), v);
    }

    /// One correctness check: counts as an attempt, and as a failure
    /// when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records a failure of an op already counted in `attempted`.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < MAX_FAILURE_NOTES {
            self.failures.push(what);
        }
    }

    /// p50/p95 as named, p99/max/count as diagnostics.
    pub fn class_diag(&mut self, class: &str, s: &Summary) {
        self.diag(&format!("{class}.n"), s.n as f64);
        self.diag(&format!("{class}.p50_us"), s.p50_us);
        self.diag(&format!("{class}.p95_us"), s.p95_us);
        self.diag(&format!("{class}.p99_us"), s.p99_us);
        self.diag(&format!("{class}.max_us"), s.max_us);
    }

    pub fn merge_tally(&mut self, attempted: u64, failures: Vec<String>) {
        self.attempted += attempted;
        for f in failures {
            self.fail(f);
        }
    }
}

pub fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([
        ("value".to_string(), Json::Num(value)),
        ("unit".to_string(), Json::Str(unit.to_string())),
    ])
}
