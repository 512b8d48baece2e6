//! Outside-in tracing: spans recorded by the ledger around its calls
//! into each layer's public functions. Spans live in memory and are
//! written out when the run ends; nothing inside the engine is
//! instrumented.

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `core.txn.commit`.
    pub name: &'static str,
    pub id: u32,
    /// The span that was open when this one started.
    pub parent: Option<u32>,
    /// Spans of one statement share this.
    pub stmt: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    stmt: u32,
}

impl Tracer {
    pub fn with_capacity(n: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(n),
            open: Vec::with_capacity(8),
            stmt: 0,
        }
    }

    /// Starts a new statement; returns its id.
    pub fn next_stmt(&mut self) -> u32 {
        self.stmt += 1;
        self.stmt
    }

    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.open.push(id);
        // The clock is read last on entry and first on exit, so the
        // tracer's own bookkeeping falls outside the span.
        self.spans.push(Span {
            name,
            id,
            parent,
            stmt: self.stmt,
            start_ns: 0,
            end_ns: 0,
        });
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans[id as usize].start_ns = now;
        id
    }

    pub fn exit(&mut self, id: u32) {
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans[id as usize].end_ns = now;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost-first");
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// The tracer is shared with the WAL storage wrapper, which emits its
/// spans from inside the engine's commit on the caller's thread.
pub type SharedTracer = Arc<Mutex<Tracer>>;

pub fn shared(capacity: usize) -> SharedTracer {
    Arc::new(Mutex::new(Tracer::with_capacity(capacity)))
}

/// Runs `f` inside a span. The lock is held only to open and close the
/// span, never across `f`, so nested spans can take it.
pub fn span<R>(t: &SharedTracer, name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = t.lock().expect("tracer lock").enter(name);
    let r = f();
    t.lock().expect("tracer lock").exit(id);
    r
}

/// Span name → self time of each span of that name, in nanoseconds.
pub type SelfTimes = BTreeMap<&'static str, Vec<u64>>;

/// Self time of every span — its duration minus the part its direct
/// children cover — grouped by span name, in nanoseconds.
pub fn self_times(spans: &[Span]) -> SelfTimes {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.dur_ns();
        }
    }
    let mut out = SelfTimes::new();
    for s in spans {
        out.entry(s.name)
            .or_default()
            .push(s.dur_ns().saturating_sub(child_ns[s.id as usize]));
    }
    out
}

/// Total duration of the spans that have no parent — the traced share
/// of the statements' wall time.
pub fn top_level_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur_ns)
        .sum()
}

pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "[")?;
    for (i, s) in spans.iter().enumerate() {
        let v = Json::obj([
            ("name".to_string(), Json::Str(s.name.to_string())),
            ("id".to_string(), Json::Num(f64::from(s.id))),
            (
                "parent".to_string(),
                s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
            ),
            ("stmt".to_string(), Json::Num(f64::from(s.stmt))),
            ("start_ns".to_string(), Json::Num(s.start_ns as f64)),
            ("end_ns".to_string(), Json::Num(s.end_ns as f64)),
        ]);
        let comma = if i + 1 < spans.len() { "," } else { "" };
        writeln!(w, "{}{comma}", v.render())?;
    }
    writeln!(w, "]")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, id: u32, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            name,
            id,
            parent,
            stmt: 1,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // commit [0,100] ⊃ append [10,30], sync [40,90] ⊃ inner [50,60]
        let spans = vec![
            sp("commit", 0, None, 0, 100),
            sp("append", 1, Some(0), 10, 30),
            sp("sync", 2, Some(0), 40, 90),
            sp("inner", 3, Some(2), 50, 60),
        ];
        let t = self_times(&spans);
        assert_eq!(t["commit"], vec![100 - 20 - 50]);
        assert_eq!(t["sync"], vec![50 - 10]);
        assert_eq!(t["append"], vec![20]);
        assert_eq!(top_level_ns(&spans), 100);
        // Self times partition the top-level time exactly.
        let sum: u64 = t.values().flatten().sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn tracer_nests_by_open_order() {
        let t = shared(8);
        t.lock().unwrap().next_stmt();
        span(&t, "outer", || {
            span(&t, "inner", || {});
        });
        span(&t, "sibling", || {});
        let guard = t.lock().unwrap();
        let s = guard.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, None);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert!(s.iter().all(|x| x.stmt == 1));
    }
}
