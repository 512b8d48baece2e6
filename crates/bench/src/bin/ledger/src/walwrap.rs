//! A counting, timing `WalStorage` wrapper owned by the ledger. The
//! engine calls it from inside `commit`, so its spans nest under the
//! `core.txn.commit` span the driver opened — the one place the trace
//! sees inside a layer without touching engine source.

use crate::trace::{span, SharedTracer};
use rcalcite_core::error::Result;
use rcalcite_core::wal::WalStorage;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Default)]
pub struct WalCounters {
    pub appends: AtomicU64,
    pub bytes: AtomicU64,
    pub syncs: AtomicU64,
    /// Spans are emitted only while this is set — during the
    /// single-threaded decomposed pass, never while client threads run.
    pub tracing: AtomicBool,
}

pub struct TracedWal<S: WalStorage> {
    inner: S,
    counters: Arc<WalCounters>,
    tracer: SharedTracer,
}

impl<S: WalStorage> TracedWal<S> {
    pub fn new(inner: S, counters: Arc<WalCounters>, tracer: SharedTracer) -> Self {
        TracedWal {
            inner,
            counters,
            tracer,
        }
    }
}

impl<S: WalStorage> WalStorage for TracedWal<S> {
    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        // Statistics only: Relaxed publishes nothing else.
        self.counters.appends.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        if self.counters.tracing.load(Ordering::SeqCst) {
            span(&self.tracer, "core.wal.append", || self.inner.append(bytes))
        } else {
            self.inner.append(bytes)
        }
    }

    fn sync(&mut self) -> Result<()> {
        self.counters.syncs.fetch_add(1, Ordering::Relaxed);
        if self.counters.tracing.load(Ordering::SeqCst) {
            span(&self.tracer, "core.wal.sync", || self.inner.sync())
        } else {
            self.inner.sync()
        }
    }

    fn contents(&self) -> Result<Vec<u8>> {
        self.inner.contents()
    }
}
