//! Write-ahead logging for the transaction subsystem.
//!
//! The log is an append-only byte stream of framed records:
//!
//! ```text
//! [u32 payload length (LE)] [u32 CRC-32 of payload (LE)] [payload bytes]
//! ```
//!
//! Each payload is a self-describing binary encoding of one [`WalRecord`]
//! (begin / insert / update / delete / commit / abort), written through
//! the same [`ByteWriter`]/[`ByteReader`] codec that spill chunks use, so
//! the engine has one byte form for a datum. Commits write the
//! whole transaction as one contiguous block — `Begin`, every operation,
//! then `Commit` — under the transaction manager's commit lock, so the log
//! orders transactions exactly by commit timestamp.
//!
//! Recovery ([`replay`]) scans frames until the first torn or corrupt one
//! (short frame, CRC mismatch, or undecodable payload — everything after a
//! crash's partial write is discarded), keeps only transactions whose
//! `Commit` record survived, and re-applies their operations in commit
//! order through [`crate::catalog::Table::apply_delta`]. The baseline the
//! log is replayed over is the checkpoint: DDL and initial table loads are
//! not logged, only transactional row changes are.
//!
//! [`WalStorage`] abstracts the backing bytes: [`FileWal`] appends to a
//! file, [`MemWal`] keeps a shared in-memory buffer that tests can read
//! back, truncate or corrupt. [`WalWriter`] optionally injects a crash
//! (via `RCALCITE_TEST_CRASH_AT` or [`WalWriter::with_crash_at`]): at the
//! chosen record it writes half a frame and then fails permanently, which
//! is exactly the torn tail recovery must discard.

use crate::buffer::{ByteReader, ByteWriter};
use crate::catalog::Catalog;
use crate::datum::Row;
use crate::error::{CalciteError, Result};
use crate::txn::DeltaOp;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Environment variable naming the 1-based WAL record number at which the
/// writer simulates a crash (partial frame, then permanent failure).
pub const CRASH_AT_ENV: &str = "RCALCITE_TEST_CRASH_AT";

// ---------------------------------------------------------------------
// CRC-32 (IEEE), table-driven; computed at compile time so the module
// needs no dependencies and no lazy initialization.
// ---------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE 802.3 polynomial) over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------
// Records and their binary encoding
// ---------------------------------------------------------------------

/// One logical log record. `Insert`/`Update`/`Delete` carry the stable row
/// id assigned by the table, so replay is deterministic regardless of
/// physical row positions.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    Begin {
        txn: u64,
    },
    Insert {
        txn: u64,
        table: String,
        row_id: u64,
        row: Row,
    },
    Update {
        txn: u64,
        table: String,
        row_id: u64,
        row: Row,
    },
    Delete {
        txn: u64,
        table: String,
        row_id: u64,
    },
    Commit {
        txn: u64,
        commit_ts: u64,
    },
    Abort {
        txn: u64,
    },
}

impl WalRecord {
    pub fn txn(&self) -> u64 {
        match self {
            WalRecord::Begin { txn }
            | WalRecord::Insert { txn, .. }
            | WalRecord::Update { txn, .. }
            | WalRecord::Delete { txn, .. }
            | WalRecord::Commit { txn, .. }
            | WalRecord::Abort { txn } => *txn,
        }
    }

    /// Builds the operation record for `op` against `table`.
    pub fn from_op(txn: u64, table: &str, op: &DeltaOp) -> WalRecord {
        match op {
            DeltaOp::Insert { row_id, row } => WalRecord::Insert {
                txn,
                table: table.to_string(),
                row_id: *row_id,
                row: row.clone(),
            },
            DeltaOp::Update { row_id, row } => WalRecord::Update {
                txn,
                table: table.to_string(),
                row_id: *row_id,
                row: row.clone(),
            },
            DeltaOp::Delete { row_id } => WalRecord::Delete {
                txn,
                table: table.to_string(),
                row_id: *row_id,
            },
        }
    }

    /// The table-level operation this record carries, if any.
    fn to_op(&self) -> Option<(String, DeltaOp)> {
        match self {
            WalRecord::Insert {
                table, row_id, row, ..
            } => Some((
                table.clone(),
                DeltaOp::Insert {
                    row_id: *row_id,
                    row: row.clone(),
                },
            )),
            WalRecord::Update {
                table, row_id, row, ..
            } => Some((
                table.clone(),
                DeltaOp::Update {
                    row_id: *row_id,
                    row: row.clone(),
                },
            )),
            WalRecord::Delete { table, row_id, .. } => {
                Some((table.clone(), DeltaOp::Delete { row_id: *row_id }))
            }
            _ => None,
        }
    }

    /// Serializes the record payload (no frame header) through the
    /// engine's shared codec. Fails on an extension value, before any
    /// byte reaches the log.
    pub fn encode(&self) -> Result<Vec<u8>> {
        let mut w = ByteWriter::new();
        let op_header = |w: &mut ByteWriter, tag: u8, txn: u64, table: &str, row_id: u64| {
            w.u8(tag);
            w.u64(txn);
            w.str(table);
            w.u64(row_id);
        };
        match self {
            WalRecord::Insert {
                txn,
                table,
                row_id,
                row,
            } => {
                op_header(&mut w, 2, *txn, table, *row_id);
                w.row(row)?;
            }
            WalRecord::Update {
                txn,
                table,
                row_id,
                row,
            } => {
                op_header(&mut w, 3, *txn, table, *row_id);
                w.row(row)?;
            }
            WalRecord::Delete { txn, table, row_id } => op_header(&mut w, 4, *txn, table, *row_id),
            WalRecord::Begin { txn } => {
                w.u8(1);
                w.u64(*txn);
            }
            WalRecord::Commit { txn, commit_ts } => {
                w.u8(5);
                w.u64(*txn);
                w.u64(*commit_ts);
            }
            WalRecord::Abort { txn } => {
                w.u8(6);
                w.u64(*txn);
            }
        }
        Ok(w.buf)
    }

    /// Decodes one record payload produced by [`WalRecord::encode`].
    pub fn decode(bytes: &[u8]) -> Result<WalRecord> {
        let mut r = ByteReader::new(bytes);
        let rec = match r.u8()? {
            1 => WalRecord::Begin { txn: r.u64()? },
            2 => WalRecord::Insert {
                txn: r.u64()?,
                table: r.str()?.to_string(),
                row_id: r.u64()?,
                row: r.row()?,
            },
            3 => WalRecord::Update {
                txn: r.u64()?,
                table: r.str()?.to_string(),
                row_id: r.u64()?,
                row: r.row()?,
            },
            4 => WalRecord::Delete {
                txn: r.u64()?,
                table: r.str()?.to_string(),
                row_id: r.u64()?,
            },
            5 => WalRecord::Commit {
                txn: r.u64()?,
                commit_ts: r.u64()?,
            },
            6 => WalRecord::Abort { txn: r.u64()? },
            t => {
                return Err(CalciteError::execution(format!(
                    "unknown WAL record tag {t}"
                )))
            }
        };
        if r.remaining() != 0 {
            return Err(CalciteError::execution(
                "trailing bytes after WAL record payload",
            ));
        }
        Ok(rec)
    }
}

// ---------------------------------------------------------------------
// Storage
// ---------------------------------------------------------------------

/// The bytes under the log. Implementations only need append/sync plus a
/// way to read everything back for recovery.
pub trait WalStorage: Send {
    fn append(&mut self, bytes: &[u8]) -> Result<()>;
    fn sync(&mut self) -> Result<()>;
    fn contents(&self) -> Result<Vec<u8>>;
}

/// File-backed storage: appends to `path`, creating it if missing.
pub struct FileWal {
    path: PathBuf,
    file: std::fs::File,
}

impl FileWal {
    pub fn open(path: impl AsRef<Path>) -> Result<FileWal> {
        let path = path.as_ref().to_path_buf();
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| CalciteError::execution(format!("open WAL {}: {e}", path.display())))?;
        Ok(FileWal { path, file })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl WalStorage for FileWal {
    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        self.file
            .write_all(bytes)
            .map_err(|e| CalciteError::execution(format!("WAL append: {e}")))
    }

    fn sync(&mut self) -> Result<()> {
        self.file
            .sync_data()
            .map_err(|e| CalciteError::execution(format!("WAL sync: {e}")))
    }

    fn contents(&self) -> Result<Vec<u8>> {
        std::fs::read(&self.path)
            .map_err(|e| CalciteError::execution(format!("read WAL {}: {e}", self.path.display())))
    }
}

/// In-memory storage for tests. The buffer is shared: clone the `MemWal`
/// (or keep [`MemWal::handle`]) to inspect, truncate or corrupt the bytes
/// a writer produced — e.g. to fabricate torn tails and checksum failures.
#[derive(Clone, Default)]
pub struct MemWal {
    buf: Arc<Mutex<Vec<u8>>>,
}

impl MemWal {
    pub fn new() -> MemWal {
        MemWal::default()
    }

    /// The shared underlying buffer.
    pub fn handle(&self) -> Arc<Mutex<Vec<u8>>> {
        Arc::clone(&self.buf)
    }
}

impl WalStorage for MemWal {
    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        self.buf.lock().extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        Ok(())
    }

    fn contents(&self) -> Result<Vec<u8>> {
        Ok(self.buf.lock().clone())
    }
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Frames one record payload: its length, its CRC-32, then the bytes.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut w = ByteWriter {
        buf: Vec::with_capacity(payload.len() + 8),
    };
    w.u32(payload.len() as u32);
    w.u32(crc32(payload));
    w.buf.extend_from_slice(payload);
    w.buf
}

/// Frames and appends records, with optional crash injection: at record
/// number `crash_at` (1-based, counted across the writer's lifetime) the
/// writer emits only the first half of the frame and then fails — the
/// in-process analogue of the machine dying mid-write.
///
/// Any failed write closes the writer, an injected crash or a storage
/// `append`/`sync` error alike: the bytes already handed to storage may
/// or may not hold the record, so no later record may be acknowledged
/// after it, and only replay decides the failed commit's outcome.
pub struct WalWriter {
    storage: Box<dyn WalStorage>,
    records: u64,
    crash_at: Option<u64>,
    /// Why the writer closed: the failed write's error.
    closed: Option<String>,
}

impl WalWriter {
    /// Wraps `storage`; crash injection is armed from the
    /// `RCALCITE_TEST_CRASH_AT` environment variable when set.
    pub fn new(storage: Box<dyn WalStorage>) -> WalWriter {
        let crash_at = std::env::var(CRASH_AT_ENV)
            .ok()
            .and_then(|v| v.parse::<u64>().ok());
        WalWriter {
            storage,
            records: 0,
            crash_at,
            closed: None,
        }
    }

    /// Arms crash injection at record `n` (1-based), overriding the
    /// environment.
    pub fn with_crash_at(mut self, n: u64) -> WalWriter {
        self.crash_at = Some(n);
        self
    }

    /// Frames and appends one record.
    pub fn append(&mut self, record: &WalRecord) -> Result<()> {
        self.check_open()?;
        let frame = frame(&record.encode()?);
        if self.crash_at == Some(self.records + 1) {
            // Half a frame on disk, then the process is "gone".
            let torn = frame.len() / 2;
            let _ = self.storage.append(&frame[..torn.max(1)]);
            let _ = self.storage.sync();
            return Err(self.close(format!(
                "simulated crash while writing WAL record {}",
                self.records + 1
            )));
        }
        let appended = self.storage.append(&frame);
        appended.map_err(|e| self.close(format!("WAL append failed ({e})")))?;
        self.records += 1;
        Ok(())
    }

    pub fn sync(&mut self) -> Result<()> {
        self.check_open()?;
        let synced = self.storage.sync();
        synced.map_err(|e| self.close(format!("WAL sync failed ({e})")))
    }

    fn check_open(&self) -> Result<()> {
        match &self.closed {
            Some(cause) => Err(CalciteError::execution(format!(
                "WAL is closed after a failed write ({cause}); replay decides what committed"
            ))),
            None => Ok(()),
        }
    }

    fn close(&mut self, cause: String) -> CalciteError {
        let err = format!("{cause}; the WAL is closed and replay decides this commit's outcome");
        self.closed = Some(cause);
        CalciteError::execution(err)
    }
}

// ---------------------------------------------------------------------
// Reader and recovery
// ---------------------------------------------------------------------

/// Decodes frames from `bytes` until the first torn or corrupt frame;
/// returns the records plus how many bytes were consumed cleanly.
pub fn read_records(bytes: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut records = Vec::new();
    let mut at = 0usize;
    while bytes.len() - at >= 8 {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap());
        if bytes.len() - at - 8 < len {
            break; // torn tail
        }
        let payload = &bytes[at + 8..at + 8 + len];
        if crc32(payload) != crc {
            break; // corruption: nothing after it can be trusted
        }
        match WalRecord::decode(payload) {
            Ok(rec) => records.push(rec),
            Err(_) => break,
        }
        at += 8 + len;
    }
    (records, at)
}

/// One transaction recovered from the log: its id, commit timestamp, and
/// operations in original order.
#[derive(Debug, Clone)]
pub struct RecoveredTxn {
    pub txn: u64,
    pub commit_ts: u64,
    pub ops: Vec<(String, DeltaOp)>,
}

/// Keeps only transactions whose `Commit` record survived, in log order.
/// Aborted and unfinished (torn) transactions are dropped.
///
/// Transaction ids are only unique within one writer incarnation — a
/// restarted manager appending to the same file restarts at 1 — so this
/// must not group by id across the whole log. Instead it runs the log
/// forward: `Begin` starts a fresh transaction (discarding any ops a
/// prior same-id incarnation left without a `Commit`, e.g. a
/// cleanly-framed prefix of a crashed commit), and each `Commit` emits
/// exactly the ops accumulated since its own `Begin`. Log order *is*
/// commit order: commits are appended contiguously under the commit lock,
/// whereas commit timestamps also restart per incarnation and so cannot
/// order transactions across incarnations.
pub fn committed_txns(records: &[WalRecord]) -> Vec<RecoveredTxn> {
    let mut pending: BTreeMap<u64, Vec<(String, DeltaOp)>> = BTreeMap::new();
    let mut committed: Vec<RecoveredTxn> = Vec::new();
    for rec in records {
        match rec {
            WalRecord::Begin { txn } => {
                pending.insert(*txn, Vec::new());
            }
            WalRecord::Commit { txn, commit_ts } => {
                if let Some(ops) = pending.remove(txn) {
                    committed.push(RecoveredTxn {
                        txn: *txn,
                        commit_ts: *commit_ts,
                        ops,
                    });
                }
            }
            WalRecord::Abort { txn } => {
                pending.remove(txn);
            }
            _ => {
                if let Some((table, op)) = rec.to_op() {
                    pending.entry(rec.txn()).or_default().push((table, op));
                }
            }
        }
    }
    committed
}

/// Summary of a [`replay`] pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// Committed transactions re-applied.
    pub txns: usize,
    /// Row operations re-applied.
    pub ops: usize,
    /// Bytes discarded as a torn or corrupt tail.
    pub discarded_bytes: usize,
    /// Largest transaction id seen in any cleanly-read record (0 if the
    /// log was empty), committed or not — an uncommitted `Begin` still
    /// means the id appears in the file.
    pub max_txn_id: u64,
    /// Largest commit timestamp seen (0 if none committed).
    pub max_commit_ts: u64,
}

/// Recovery: replays every committed transaction in `bytes` onto
/// `catalog`, in commit order, discarding the torn tail. The catalog must
/// hold the checkpoint state the log was written against (same DDL, same
/// initial loads), so replayed row ids line up.
///
/// If the recovered [`crate::txn::TxnManager`] will keep appending to the
/// same log, seed its counters with the report's maxima
/// ([`crate::txn::TxnManager::seed_counters`]) so continued commits never
/// reuse a transaction id or commit timestamp already in the file —
/// [`committed_txns`] tolerates reuse, but distinct ids keep each
/// incarnation's records self-describing.
pub fn replay(bytes: &[u8], catalog: &Catalog) -> Result<ReplayReport> {
    let (records, consumed) = read_records(bytes);
    let txns = committed_txns(&records);
    let mut report = ReplayReport {
        txns: 0,
        ops: 0,
        discarded_bytes: bytes.len() - consumed,
        max_txn_id: records.iter().map(WalRecord::txn).max().unwrap_or(0),
        max_commit_ts: records
            .iter()
            .filter_map(|r| match r {
                WalRecord::Commit { commit_ts, .. } => Some(*commit_ts),
                _ => None,
            })
            .max()
            .unwrap_or(0),
    };
    for txn in txns {
        // Group per table, preserving op order within each table.
        let mut per_table: Vec<(String, Vec<DeltaOp>)> = Vec::new();
        for (table, op) in txn.ops {
            match per_table.iter_mut().find(|(t, _)| *t == table) {
                Some((_, ops)) => ops.push(op),
                None => per_table.push((table, vec![op])),
            }
        }
        for (table, ops) in per_table {
            let parts: Vec<&str> = table.split('.').collect();
            let tref = catalog.resolve(&parts).map_err(|e| {
                CalciteError::execution(format!("WAL replay: cannot resolve '{table}': {e}"))
            })?;
            report.ops += ops.len();
            tref.table.apply_delta(&ops)?;
        }
        report.txns += 1;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datum::Datum;

    fn roundtrip(rec: WalRecord) {
        let bytes = rec.encode().unwrap();
        assert_eq!(WalRecord::decode(&bytes).unwrap(), rec);
    }

    #[test]
    fn record_roundtrips() {
        roundtrip(WalRecord::Begin { txn: 7 });
        roundtrip(WalRecord::Insert {
            txn: 7,
            table: "hr.emp".into(),
            row_id: 3,
            row: vec![
                Datum::Int(1),
                Datum::str("alice"),
                Datum::Double(1.5),
                Datum::Null,
                Datum::Bool(true),
                Datum::Date(19000),
                Datum::Timestamp(1_700_000_000_000),
                Datum::Interval(86_400_000),
                Datum::array(vec![Datum::Int(1), Datum::Null]),
                Datum::map([("k".to_string(), Datum::Int(2))]),
            ],
        });
        roundtrip(WalRecord::Update {
            txn: 8,
            table: "hr.emp".into(),
            row_id: 0,
            row: vec![],
        });
        roundtrip(WalRecord::Delete {
            txn: 8,
            table: "s.t".into(),
            row_id: u64::MAX,
        });
        roundtrip(WalRecord::Commit {
            txn: 8,
            commit_ts: 42,
        });
        roundtrip(WalRecord::Abort { txn: 9 });
    }

    /// One record of each kind; the Insert carries every datum kind the
    /// log can hold.
    fn golden_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Begin { txn: 7 },
            WalRecord::Insert {
                txn: 7,
                table: "hr.emp".into(),
                row_id: 3,
                row: vec![
                    Datum::Null,
                    Datum::Bool(true),
                    Datum::Int(-2),
                    Datum::Double(1.5),
                    Datum::str("al"),
                    Datum::Date(19000),
                    Datum::Timestamp(1_700_000_000_000),
                    Datum::Interval(86_400_000),
                    Datum::array(vec![Datum::Int(1), Datum::Null]),
                    Datum::map([("k".to_string(), Datum::Bool(false))]),
                ],
            },
            WalRecord::Update {
                txn: 7,
                table: "s.t".into(),
                row_id: 9,
                row: vec![Datum::Date(-1)],
            },
            WalRecord::Delete {
                txn: 7,
                table: "s.t".into(),
                row_id: 4,
            },
            WalRecord::Commit {
                txn: 7,
                commit_ts: 42,
            },
            WalRecord::Abort { txn: 8 },
        ]
    }

    /// The log format, pinned: these payloads must never change, or logs
    /// already on disk stop replaying. A DATE is a 4-byte `i32`.
    const GOLDEN_HEX: [&str; 6] = [
        "010700000000000000",
        "0207000000000000000600000068722e656d7003000000000000000a000000000101\
         02feffffffffffffff03000000000000f83f0402000000616c05384a000006006\
         8e5cf8b01000007005c2605000000000802000000020100000000000000000901\
         000000010000006b0100",
        "03070000000000000003000000732e7409000000000000000100000005ffffffff",
        "04070000000000000003000000732e740400000000000000",
        "0507000000000000002a00000000000000",
        "060800000000000000",
    ];

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn encoding_matches_golden_bytes() {
        for (rec, hex) in golden_records().into_iter().zip(GOLDEN_HEX) {
            let golden = unhex(hex);
            assert_eq!(rec.encode().unwrap(), golden, "{rec:?}");
            assert_eq!(WalRecord::decode(&golden).unwrap(), rec);
        }
    }

    #[test]
    fn huge_row_count_ends_the_log_at_its_frame() {
        let good = frame(&WalRecord::Begin { txn: 1 }.encode().unwrap());
        // A checksummed Insert whose row claims u32::MAX datums.
        let mut w = ByteWriter::new();
        w.u8(2);
        w.u64(1);
        w.str("s.t");
        w.u64(0);
        w.u32(u32::MAX);
        w.u8(0);
        let mut log = good.clone();
        log.extend(frame(&w.buf));
        let (recs, used) = read_records(&log);
        assert_eq!(recs, vec![WalRecord::Begin { txn: 1 }]);
        assert_eq!(used, good.len());
    }

    #[test]
    fn extension_values_never_reach_the_log() {
        #[derive(Debug)]
        struct Opaque;
        impl std::fmt::Display for Opaque {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "opaque")
            }
        }
        impl crate::datum::ExtValue for Opaque {
            fn type_name(&self) -> &'static str {
                "opaque"
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn ext_eq(&self, _other: &dyn crate::datum::ExtValue) -> bool {
                false
            }
        }
        let mem = MemWal::new();
        let mut w = WalWriter::new(Box::new(mem.clone()));
        let rec = WalRecord::Insert {
            txn: 1,
            table: "s.t".into(),
            row_id: 0,
            row: vec![Datum::Int(1), Datum::Ext(Arc::new(Opaque))],
        };
        assert!(w.append(&rec).is_err());
        assert!(mem.contents().unwrap().is_empty());
    }

    #[test]
    fn crc32_known_vector() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn reader_stops_at_torn_tail_and_corruption() {
        let mem = MemWal::new();
        let mut w = WalWriter::new(Box::new(mem.clone()));
        w.append(&WalRecord::Begin { txn: 1 }).unwrap();
        w.append(&WalRecord::Commit {
            txn: 1,
            commit_ts: 5,
        })
        .unwrap();
        let clean = mem.contents().unwrap();
        let (recs, used) = read_records(&clean);
        assert_eq!(recs.len(), 2);
        assert_eq!(used, clean.len());

        // Torn tail: a frame header promising more bytes than exist.
        let mut torn = clean.clone();
        torn.extend_from_slice(&100u32.to_le_bytes());
        torn.extend_from_slice(&0u32.to_le_bytes());
        torn.push(0xab);
        let (recs, used) = read_records(&torn);
        assert_eq!(recs.len(), 2);
        assert_eq!(used, clean.len());

        // Corruption: flip a payload byte — CRC fails, record dropped.
        let mut corrupt = clean.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xff;
        let (recs, _) = read_records(&corrupt);
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn committed_filter_drops_aborts_and_unfinished() {
        let records = vec![
            WalRecord::Begin { txn: 1 },
            WalRecord::Delete {
                txn: 1,
                table: "s.t".into(),
                row_id: 0,
            },
            WalRecord::Abort { txn: 1 },
            WalRecord::Begin { txn: 2 },
            WalRecord::Delete {
                txn: 2,
                table: "s.t".into(),
                row_id: 1,
            },
            WalRecord::Commit {
                txn: 2,
                commit_ts: 9,
            },
            WalRecord::Begin { txn: 3 },
            WalRecord::Delete {
                txn: 3,
                table: "s.t".into(),
                row_id: 2,
            },
            // no commit: torn
        ];
        let txns = committed_txns(&records);
        assert_eq!(txns.len(), 1);
        assert_eq!(txns[0].txn, 2);
        assert_eq!(txns[0].commit_ts, 9);
        assert_eq!(txns[0].ops.len(), 1);
    }

    #[test]
    fn id_reuse_across_incarnations_replays_both_in_log_order() {
        // Two writer incarnations appended to one log, both using txn id 1
        // — and the second one's clock restarted, so its commit_ts is
        // *smaller*. Each commit must get exactly its own ops, in log
        // order (not commit_ts order, which would swap them).
        let records = vec![
            WalRecord::Begin { txn: 1 },
            WalRecord::Update {
                txn: 1,
                table: "s.t".into(),
                row_id: 0,
                row: vec![Datum::Int(10)],
            },
            WalRecord::Commit {
                txn: 1,
                commit_ts: 9,
            },
            // restart: same id, fresh clock
            WalRecord::Begin { txn: 1 },
            WalRecord::Update {
                txn: 1,
                table: "s.t".into(),
                row_id: 0,
                row: vec![Datum::Int(20)],
            },
            WalRecord::Commit {
                txn: 1,
                commit_ts: 2,
            },
        ];
        let txns = committed_txns(&records);
        assert_eq!(txns.len(), 2);
        assert_eq!(txns[0].commit_ts, 9);
        assert_eq!(txns[1].commit_ts, 2);
        assert_eq!(txns[0].ops.len(), 1);
        assert_eq!(txns[1].ops.len(), 1);
        assert_eq!(
            txns[1].ops[0].1,
            DeltaOp::Update {
                row_id: 0,
                row: vec![Datum::Int(20)]
            }
        );
    }

    #[test]
    fn begin_discards_uncommitted_prefix_of_reused_id() {
        // A prior run died between frames: Begin + op, cleanly framed, no
        // Commit. A later incarnation reuses the id and commits — only
        // the new incarnation's ops may replay.
        let records = vec![
            WalRecord::Begin { txn: 1 },
            WalRecord::Delete {
                txn: 1,
                table: "s.t".into(),
                row_id: 0,
            },
            // crash; restart reuses id 1
            WalRecord::Begin { txn: 1 },
            WalRecord::Update {
                txn: 1,
                table: "s.t".into(),
                row_id: 1,
                row: vec![Datum::Int(5)],
            },
            WalRecord::Commit {
                txn: 1,
                commit_ts: 3,
            },
        ];
        let txns = committed_txns(&records);
        assert_eq!(txns.len(), 1);
        assert_eq!(
            txns[0].ops,
            vec![(
                "s.t".to_string(),
                DeltaOp::Update {
                    row_id: 1,
                    row: vec![Datum::Int(5)]
                }
            )]
        );
    }

    #[test]
    fn crash_injection_writes_partial_frame_then_fails() {
        let mem = MemWal::new();
        let mut w = WalWriter::new(Box::new(mem.clone())).with_crash_at(2);
        w.append(&WalRecord::Begin { txn: 1 }).unwrap();
        let err = w
            .append(&WalRecord::Commit {
                txn: 1,
                commit_ts: 3,
            })
            .unwrap_err();
        assert!(err.to_string().contains("simulated crash"));
        // Writer is permanently dead.
        assert!(w.append(&WalRecord::Abort { txn: 1 }).is_err());
        assert!(w.sync().is_err());
        // The tail is torn: only the first record survives recovery.
        let bytes = mem.contents().unwrap();
        let (recs, used) = read_records(&bytes);
        assert_eq!(recs, vec![WalRecord::Begin { txn: 1 }]);
        assert!(used < bytes.len());
    }

    #[test]
    fn file_wal_appends_and_reads_back() {
        let dir = std::env::temp_dir().join(format!("rcalcite-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.wal");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = WalWriter::new(Box::new(FileWal::open(&path).unwrap()));
            w.append(&WalRecord::Begin { txn: 4 }).unwrap();
            w.append(&WalRecord::Commit {
                txn: 4,
                commit_ts: 11,
            })
            .unwrap();
            w.sync().unwrap();
        }
        let bytes = FileWal::open(&path).unwrap().contents().unwrap();
        let (recs, _) = read_records(&bytes);
        assert_eq!(recs.len(), 2);
        let _ = std::fs::remove_file(&path);
    }
}
