//! The perf ledger: the repo's benchmark.
//!
//! ```text
//! ledger --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ledger --list
//! ledger compare A.json B.json
//! ```
//!
//! One process runs one workload. The untraced run (`--trace 0`) drives
//! the engine only through its front door — `Connection::builder`,
//! `prepare`, `query`, `execute`, `PreparedStatement::bind`,
//! `ResultSet::collect` — and prints the end-to-end metrics. The traced
//! run (`--trace 1`) repeats a shorter front-door pass, then replays
//! sampled ops in decomposed form, timing calls into each layer's public
//! functions from outside, and prints the per-layer metrics. Every run
//! checks its results against oracles that do not go through the engine.
//! See `README.md` beside this crate's manifest.

mod compare;
mod gen;
mod json;
mod metrics;
mod report;
mod stats;
mod trace;
mod walwrap;
mod workloads;

use json::Json;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Ctx;

/// Engine test hooks that silently change what a connection does; a
/// benchmark number taken under one of them measures something else.
const REFUSED_ENV: [&str; 3] = [
    "RCALCITE_TEST_WORKERS",
    "RCALCITE_TEST_MEM_BUDGET",
    "RCALCITE_TEST_CRASH_AT",
];

#[derive(Debug, PartialEq)]
enum Command {
    List,
    Compare(PathBuf, PathBuf),
    Run {
        workload: String,
        seed: u64,
        seconds: f64,
        trace: bool,
        quick: bool,
    },
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    if args.first().map(String::as_str) == Some("compare") {
        return match args {
            [_, a, b] => Ok(Command::Compare(a.into(), b.into())),
            _ => Err("usage: ledger compare A.json B.json".into()),
        };
    }
    let (mut workload, mut seed, mut seconds, mut trace, mut quick) =
        (None, 1u64, 10.0, false, false);
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--list" => return Ok(Command::List),
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                // `--trace 0|1`, or bare `--trace` meaning 1.
                trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => quick = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Command::Run {
        workload: workload.ok_or("missing --workload <name> (try --list)")?,
        seed,
        seconds,
        trace,
        quick,
    })
}

/// Where build products go: results under `<dir>/ledger`, scratch files
/// under `<dir>/ledger-tmp/<pid>`. Follows `CARGO_TARGET_DIR` so a
/// driver that redirects the build also redirects these.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// Removes the per-process scratch directory however the run ends.
struct TmpDir(PathBuf);

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The first refused variable that `is_set`, if any.
fn refused_env(is_set: impl Fn(&str) -> bool) -> Option<&'static str> {
    REFUSED_ENV.into_iter().find(|v| is_set(v))
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

fn run_workload(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<(), String> {
    if let Some(var) = refused_env(|v| std::env::var_os(v).is_some()) {
        return Err(format!(
            "{var} is set: it is an engine test hook that changes what connections do; unset it to benchmark"
        ));
    }
    let target = target_dir();
    let tmp = TmpDir(
        target
            .join("ledger-tmp")
            .join(std::process::id().to_string()),
    );
    std::fs::create_dir_all(&tmp.0).map_err(|e| format!("create {}: {e}", tmp.0.display()))?;
    // The engine's spill files go to `std::env::temp_dir()`; point that
    // at our scratch directory so nothing is written outside the
    // checkout. Set before any thread exists.
    let tmp_abs = std::fs::canonicalize(&tmp.0).map_err(|e| format!("{}: {e}", tmp.0.display()))?;
    std::env::set_var("TMPDIR", &tmp_abs);
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        quick,
        nproc: nproc(),
        tmp_dir: tmp_abs,
    };
    let outcome = workloads::run(workload, &ctx)?;
    let defs = if trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    let mut printed = vec![];
    for d in &defs {
        let v = match outcome.report.values.get(&d.name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => return Err(format!("metric {} is {v}", d.name)),
            // A layer this workload never enters.
            None if trace => 0.0,
            None => return Err(format!("workload did not report {}", d.name)),
        };
        printed.push((d.name.clone(), report::metric_json(v, d.unit)));
    }
    let r = &outcome.report;
    let correct = r.failed == 0;
    let mut record: std::collections::BTreeMap<String, Json> = [
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::Num(r.attempted as f64)),
        ("failed".to_string(), Json::Num(r.failed as f64)),
        ("metrics".to_string(), Json::obj(printed)),
    ]
    .into();
    let line = Json::Obj(record.clone()).render();
    // The full record: the contract line plus what a human wants beside
    // it. Written before the line is printed, so the line stays last.
    let out_dir = target.join("ledger");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    record.insert("workload".into(), Json::Str(workload.into()));
    record.insert("seed".into(), Json::Num(seed as f64));
    record.insert("seconds".into(), Json::Num(seconds));
    record.insert("trace".into(), Json::Bool(trace));
    record.insert("nproc".into(), Json::Num(ctx.nproc as f64));
    // Catalog metrics this mode does not print (the class-specific
    // numbers an untraced run still measures).
    let shown: Vec<&String> = defs.iter().map(|d| &d.name).collect();
    record.insert(
        "layers".into(),
        Json::obj(
            r.values
                .iter()
                .filter(|(k, _)| !shown.contains(k))
                .map(|(k, v)| (k.clone(), Json::Num(*v))),
        ),
    );
    record.insert(
        "diagnostics".into(),
        Json::obj(
            r.diagnostics
                .iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v))),
        ),
    );
    record.insert(
        "failures".into(),
        Json::Arr(r.failures.iter().cloned().map(Json::Str).collect()),
    );
    let suffix = if trace { ".layers" } else { "" };
    let path = out_dir.join(format!("{workload}{suffix}.json"));
    std::fs::write(&path, Json::Obj(record).render() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    if trace {
        trace::write_spans(
            &out_dir.join(format!("{workload}.trace.json")),
            &outcome.spans,
        )
        .map_err(|e| format!("write spans: {e}"))?;
    }
    for f in &r.failures {
        eprintln!("FAILED: {f}");
    }
    println!("{line}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match parse_args(&args) {
        Ok(Command::List) => {
            for (name, why) in workloads::WHY {
                println!("{name}\t{why}");
            }
            Ok(ExitCode::SUCCESS)
        }
        // 1 when some metric is worse than its bound allows.
        Ok(Command::Compare(a, b)) => compare::run(&a, &b).map(|none_worse| {
            if none_worse {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }),
        // A run whose oracles failed still printed its line and exits 0:
        // the failure is in the line, as the contract wants it.
        Ok(Command::Run {
            workload,
            seed,
            seconds,
            trace,
            quick,
        }) => run_workload(&workload, seed, seconds, trace, quick).map(|()| ExitCode::SUCCESS),
        Err(e) => Err(e),
    };
    result.unwrap_or_else(|e| {
        eprintln!("ledger: {e}");
        ExitCode::from(2)
    })
}

/// A quick-scale context for tests. Its scratch directory sits under the
/// build's target directory (tests must not write elsewhere); the test
/// that runs workloads creates and removes it.
#[cfg(test)]
pub fn test_ctx(seed: u64, trace: bool) -> Ctx {
    Ctx {
        seed,
        seconds: 1.0,
        trace,
        quick: true,
        nproc: nproc(),
        tmp_dir: target_dir()
            .join("ledger-tmp")
            .join(format!("test-{}", std::process::id())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        assert_eq!(
            parse_args(&args("--workload mixed_rw --seed 7 --seconds 10 --trace 1")).unwrap(),
            Command::Run {
                workload: "mixed_rw".into(),
                seed: 7,
                seconds: 10.0,
                trace: true,
                quick: false
            }
        );
        assert!(matches!(
            parse_args(&args("--workload a --trace 0")).unwrap(),
            Command::Run { trace: false, .. }
        ));
        assert!(matches!(
            parse_args(&args("--workload a --trace --quick")).unwrap(),
            Command::Run {
                trace: true,
                quick: true,
                ..
            }
        ));
        assert_eq!(parse_args(&args("--list")).unwrap(), Command::List);
        assert_eq!(
            parse_args(&args("compare a.json b.json")).unwrap(),
            Command::Compare("a.json".into(), "b.json".into())
        );
        assert!(parse_args(&args("--seed 1")).is_err());
        assert!(parse_args(&args("--workload a --seconds 0")).is_err());
        assert!(parse_args(&args("--workload a --bogus")).is_err());
    }

    /// Every workload at test scale, untraced and traced, with every
    /// oracle on: nothing may fail, every catalog metric of the mode
    /// must be reported, and the traced run must produce spans.
    #[test]
    fn quick_pass_of_every_workload() {
        let scratch = TmpDir(test_ctx(11, false).tmp_dir);
        std::fs::create_dir_all(&scratch.0).unwrap();
        for (w, _) in workloads::WHY {
            for trace in [false, true] {
                let ctx = test_ctx(11, trace);
                let out = workloads::run(w, &ctx).unwrap_or_else(|e| panic!("{w}: {e}"));
                assert_eq!(
                    out.report.failed, 0,
                    "{w} trace={trace}: {:?}",
                    out.report.failures
                );
                assert!(out.report.attempted > 0);
                if trace {
                    assert!(!out.spans.is_empty(), "{w}: no spans");
                } else {
                    for d in metrics::end_to_end() {
                        let v = out.report.values.get(&d.name);
                        assert!(
                            v.is_some_and(|v| v.is_finite() && *v > 0.0),
                            "{w}: {} = {v:?}",
                            d.name
                        );
                    }
                }
                let known: Vec<String> = metrics::end_to_end()
                    .into_iter()
                    .chain(metrics::per_layer())
                    .map(|d| d.name)
                    .collect();
                for name in out.report.values.keys() {
                    assert!(known.contains(name), "{w}: '{name}' is not in the catalog");
                }
            }
        }
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        type HashFn = fn(u64) -> u64;
        let streams: [(&str, HashFn); 4] = [
            ("point_read", workloads::point_read::stream_hash),
            ("mixed_rw", workloads::mixed_rw::stream_hash),
            ("analytics", workloads::analytics::stream_hash),
            ("adhoc_plan", workloads::adhoc_plan::stream_hash),
        ];
        for (w, hash) in streams {
            assert_eq!(hash(5), hash(5), "{w}");
            assert_ne!(hash(5), hash(6), "{w}");
        }
    }

    #[test]
    fn refuses_engine_test_hooks() {
        // Looked up through a closure: setting a real variable here
        // would arm the hook in tests running beside this one.
        assert_eq!(refused_env(|_| false), None);
        for var in REFUSED_ENV {
            assert_eq!(refused_env(|v| v == var), Some(var));
        }
        assert_eq!(refused_env(|v| v == "RCALCITE_OTHER"), None);
    }
}
