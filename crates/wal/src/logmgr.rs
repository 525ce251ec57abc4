//! The log manager: the append-only virtual log stream.
//!
//! The stream is a sequence of `[u32 length][u32 CRC-32C][record body]`
//! frames; a record's LSN is the byte offset of its length prefix. The
//! stream is held in fixed-size in-memory segments; truncation (retention
//! enforcement, §4.3) moves the truncation point forward by whole segments
//! and drops them from the front, or, when archiving, keeps them below it.
//!
//! # Media hardening: checksummed frames
//!
//! Every frame carries a CRC-32C of its body, computed once at append time
//! (inside the same scratch-buffer pass that writes the length prefix) and
//! verified on every read by the one function that reads a frame back,
//! [`parse_frame`] — sealed-segment reads, tail reads under the writer
//! mutex, `flush_to`'s frame-end lookup and the restart-time damage cut all
//! go through it. A mismatch surfaces as a typed [`Error::Corruption`] with
//! [`CorruptionKind::LogBlock`] and the frame's LSN, never as a garbage
//! decode. Two degraded-mode policies follow:
//!
//! * **Damage that restart reads** — restart reads the log from its start
//!   (the newest checkpoint's begin, its DPT's lowest recLSN or the oldest
//!   loser's first record, whichever is lowest) to the tail, and no other
//!   byte. When that read meets a damaged frame, it hands the error to
//!   [`LogManager::cut_at_damage`], which re-parses that one frame and cuts
//!   the log there with the same `cut_at` [`LogManager::discard_unflushed`]
//!   cuts at the flush point with: whole later segments evaporate, the
//!   damaged segment is *replaced* by a shorter copy (sealed bytes are
//!   never mutated in place), and the checkpoint directory is trimmed to
//!   the cut. Restart then runs again over the shorter log. A torn or
//!   bit-flipped device tail therefore recovers the longest clean record
//!   prefix, and damage below restart's start stays in the log.
//! * **Mid-retention corruption at read time** — random reads and scans
//!   return the typed error to the caller, which decides (page salvage
//!   fails, repair skips the region, queries abort) — the log itself never
//!   guesses around damage inside the retained window.
//!
//! # The checkpoint directory is a function of the retained log
//!
//! The log's own `CheckpointEnd` records are its only time index (§5.1
//! narrows the SplitLSN search "using checkpoint log records which store
//! wall-clock time"). The directory lists them, one entry per record, and
//! is trimmed only by the log's two cuts: `cut_at` (a crash or damage)
//! drops the entries at or past the cut, and [`LogManager::truncate_before`]
//! drops those whose begin marker it dropped (none, when archiving). So
//! after any sequence of appends, flushes, cuts and truncations the
//! directory equals a from-scratch scan of the `CheckpointEnd` records in
//! the segments the log holds, and a crash
//! loses none of it. A damaged `CheckpointEnd` frame that restart reads is
//! an ordinary damaged frame: the log is cut there, and the previous
//! checkpoint governs.
//!
//! # Segment summaries are a function of the retained log too
//!
//! Each segment carries a [`SegmentSummary`]: the highest transaction id
//! and the highest commit/checkpoint stamp framed in it. `append_locked`
//! folds every record into the active segment's summary under the writer
//! mutex, sealing freezes it beside the bytes, `cut_at` recomputes it for
//! the one segment it shortens, and truncation keeps or drops it with its
//! segment. So each summary equals a recomputation over its
//! segment's bytes. Summaries live in memory only; the log format does not
//! change. [`LogManager::first_segment_where`] reads them to find the first
//! retained segment that can hold what a walk looks for: flashback's
//! harvest starts at the segment of its target's first record, not at the
//! truncation point.
//!
//! Random record reads (`get_record_ref`) are how `PreparePageAsOf` walks
//! per-page chains. Each read is classified as a *log cache hit* or a *log
//! I/O* through a simple cache model (hot tail + LRU of recently touched
//! blocks), because the number of undo log I/Os is exactly what the paper
//! measures in Fig. 11 and what makes log media latency matter (§6.2).
//!
//! # Concurrency: snapshot-published sealed segments
//!
//! The read path is built for heavy concurrent as-of traffic: many readers
//! walking backward chains must never contend with the appender or each
//! other.
//!
//! * **Sealed segments are immutable.** Once the active tail segment fills,
//!   it is *sealed*: its bytes move into an `Arc<[u8]>` that is never
//!   mutated again. Only the single active tail segment is ever written,
//!   and only under the writer mutex.
//! * **One published index.** The sealed segments (one contiguous vector,
//!   archived ones first) and the truncation point live in an immutable
//!   [`SealedIndex`] behind an `Arc`. Writers publish a new index on every
//!   seal/truncate/cut and bump a version counter. A read clones the
//!   current `Arc` out under its own small mutex — never the writer mutex —
//!   and resolves against it: every read reaches every segment the log
//!   holds, and a read below the oldest one is [`Error::LogTruncated`].
//!   The read entry points (`get_record_ref`, `get_record_deep`,
//!   `scan_refs`, `scan_views`) decode sealed bytes with no lock held; only
//!   reads that land in the active tail segment take the writer mutex.
//!   Retention is not a mode of the reader: `get_record_ref` refuses a
//!   record below the truncation point, and as-of snapshot creation refuses
//!   a split below it. A scan holds the index it loaded and re-loads it only
//!   when the version counter has moved (one atomic load per record), so a
//!   seal, cut or truncation is seen at the very next record. No reader
//!   keeps an index past its read.
//! * **Snapshot isolation for readers.** A reader holding a [`RecordRef`]
//!   keeps the underlying `Arc<[u8]>` alive, so `truncate_before` and
//!   `discard_unflushed` can never invalidate an in-flight read — the
//!   segment memory is reclaimed when the last reader drops it. New reads
//!   observe the new index and fail with [`Error::LogTruncated`].
//! * **Zero-copy reads.** A [`RecordRef`] borrows the record's bytes in
//!   place; [`RecordRef::header`] decodes the fixed header and
//!   [`RecordRef::view`] the header plus a borrowed [`LogPayloadView`],
//!   both without allocating. There is no owned decode: a record read back
//!   is always a view of the segment bytes (see the `record` module docs
//!   for the one payload type and its two instantiations), so chain walks
//!   perform no per-record allocation.
//! * **Appends borrow too.** [`LogManager::append`] and its batched and
//!   stamped forms take a record over either payload instantiation and
//!   encode it straight into the frame, so appending copies a payload's
//!   bytes once, into the log.
//! * **One cache model.** The block→tick LRU model is one map under one
//!   mutex: a miss inserts its block and evicts the least recently used
//!   ones until the map holds `cache_blocks`, all under that lock, so the
//!   model never holds more than it is sized for, however many readers
//!   classify at once.
//!
//! # Concurrency: the group-commit write path
//!
//! The commit path is the write-side twin of the snapshot read path: many
//! committers must not serialize on per-record mutex acquisitions or on one
//! flush apiece. Its shape:
//!
//! ```text
//!   committer A ─┐                      ┌─ park ──────────────┐
//!   committer B ─┼─ stamp+append        │                     │ woken only
//!   committer C ─┘  (ONE writer-mutex   ├─ enqueue commit LSN ┤ once their
//!                    acquisition per    │                     │ LSN is
//!                    batch, stamps      └─ leader: ONE        │ durable
//!                    monotone in LSN       flush_to(max LSN) ─┘
//!                    order)                + notify_all
//! ```
//!
//! * **The log owns each transaction's chain.** A transaction record is
//!   appended onto its [`TxnChain`] ([`LogManager::append_batch`], or
//!   [`LogManager::append_stamped`] for a commit): under the writer mutex
//!   the record's `prev_lsn` is read from the chain and its LSN published
//!   back (a `Commit` or `End` closes the chain). Checkpoint markers are
//!   stamped with no chain; [`LogManager::append`] takes the other
//!   chain-less records: full page images and hand-built logs.
//! * **Batched framing.** [`LogManager::append_batch`] frames a whole slice
//!   of one transaction's records into the scratch buffer under a single
//!   writer-mutex acquisition, chaining them through the transaction's
//!   chain and intra-batch `prev_page_lsn` links and writing each record's
//!   assigned LSN back into the slice. The batch becomes visible to
//!   readers atomically (one tail publication).
//! * **Stamping under the sequencer.** [`LogManager::append_stamped`] reads
//!   the wall clock *inside* the writer mutex and clamps it against the last
//!   stamp issued, so commit and checkpoint timestamps are monotone in LSN
//!   order — the binary-search invariant of SplitLSN (§5.1) and the
//!   checkpoint directory. `append_locked` additionally clamps (and
//!   `debug_assert`s) the stamp it remembers, so a non-monotone stamp from a
//!   raw `append` can never pull a later stamp backward.
//! * **Coalesced flushing.** [`LogManager::flush_to`] is record-boundary
//!   precise: it makes durable exactly through the end of the record at the
//!   requested LSN and charges `log_bytes_written` for those bytes only —
//!   never for other transactions' unflushed tail. Concurrent requests
//!   coalesce: one leader performs a single sequential flush to the highest
//!   requested LSN and wakes exactly the followers it covered, so N
//!   concurrent commits pay one physical flush (`log_flushes` counts them;
//!   `tests/group_commit.rs` gates on flushes-per-commit < 1 at four
//!   committers).
//!
//! **Flush-accounting invariant:** `log_bytes_written` grows by precisely
//! the framed bytes made durable by explicit flush requests; `flushed_lsn`
//! always lands on a record boundary (or the tail) and never exceeds the
//! tail, even under a racing `discard_unflushed`.

use crate::record::{LogPayloadView, LogRecord, LogRecordHeader, Payload};
use parking_lot::{Condvar, Mutex};
use rewind_common::codec::read_u32_at;
use rewind_common::{crc32c, CorruptionKind, Error, IoStats, Lsn, Result, Timestamp, TxnId};
use rewind_obs::{EventKind, Obs, ObsConfig};
use rewind_pagestore::page::PAGE_SIZE;
use std::collections::HashMap;
use std::ops::{Deref, Range};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Size of one in-memory log segment.
const SEGMENT_BYTES: u64 = 1 << 20;
/// Bytes of frame header preceding each record body:
/// `[u32 length][u32 CRC-32C of body]`.
const FRAME_HEADER: usize = 8;
/// Bounded retry budget for a transiently-failing physical flush. Each
/// attempt consumes one injected fault token; a real device failing this
/// many consecutive write barriers is dead, not transient.
const MAX_FLUSH_RETRIES: u32 = 8;
/// Cache-model block size: one "log page" worth of records.
const CACHE_BLOCK_BYTES: u64 = 64 * 1024;

/// Tuning knobs for the log manager.
#[derive(Clone, Debug)]
pub struct LogConfig {
    /// Reads within this many bytes of the log tail are always cache hits
    /// (the tail is in memory in any real system).
    pub hot_tail_bytes: u64,
    /// Number of 64 KiB blocks the read cache holds.
    pub cache_blocks: usize,
    /// Keep truncated segments as a *log archive* (the moral equivalent of
    /// incremental log backups, paper §1): truncation moves the truncation
    /// point past them but keeps them in the one segment vector. Archived
    /// log is out of retention for the as-of machinery but stays readable
    /// to scans and [`LogManager::get_record_deep`], so point-in-time
    /// restore reaches it.
    pub archive_on_truncate: bool,
    /// Modeled latency of one physical flush, in microseconds (a device
    /// write barrier / fsync). `0` (the default) makes flushes instantaneous
    /// — correct for tests — while benchmarks set a realistic sync latency
    /// so the group-commit coalescer engages the way it would against real
    /// media.
    pub flush_delay_us: u64,
    /// Observability configuration. The log manager is the first engine
    /// component constructed, so it owns the engine's [`Obs`] handle;
    /// every other layer (pool, snapshots, recovery, the database facade)
    /// shares it via [`LogManager::obs`].
    pub obs: ObsConfig,
}

impl Default for LogConfig {
    fn default() -> Self {
        LogConfig {
            hot_tail_bytes: 4 * 1024 * 1024,
            cache_blocks: 64,
            archive_on_truncate: false,
            flush_delay_us: 0,
            obs: ObsConfig::default(),
        }
    }
}

/// A checkpoint known to the log manager (directory entry).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointInfo {
    /// LSN of the checkpoint-end record.
    pub end_lsn: Lsn,
    /// LSN of the matching checkpoint-begin record.
    pub begin_lsn: Lsn,
    /// Wall-clock time of the checkpoint.
    pub at: Timestamp,
}

/// One transaction's chain as the log knows it: the LSNs of its first and
/// latest records, and whether its `Commit` or `End` has closed it.
///
/// Only the log's transaction-record appends ([`LogManager::append_batch`],
/// [`LogManager::append_stamped`]) extend a chain, under the writer mutex:
/// they read a record's `prev_lsn` from the chain and publish the record's
/// LSN (closing the chain on `Commit`/`End`) before the mutex is released.
/// So whoever appends after a record, a checkpoint's begin marker included,
/// sees the chain with that record on it — the transaction table a
/// checkpoint captures agrees with the log at the point of capture.
#[derive(Debug, Default)]
pub struct TxnChain {
    first: AtomicU64,
    last: AtomicU64,
    closed: AtomicBool,
}

impl TxnChain {
    /// LSN of the chain's first record, or null if it has none.
    pub fn first_lsn(&self) -> Lsn {
        Lsn(self.first.load(Ordering::Acquire))
    }

    /// LSN of the chain's latest record, or null: the next record's
    /// `prev_lsn`.
    pub fn last_lsn(&self) -> Lsn {
        Lsn(self.last.load(Ordering::Acquire))
    }

    /// Whether the chain's `Commit` or `End` is in the log.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Point the chain's head at `lsn`, so the next record chains to it.
    /// Restart adopts each loser at its last record and positions it at
    /// every record its undo sweep compensates.
    pub fn rewind_to(&self, lsn: Lsn) {
        self.last.store(lsn.0, Ordering::Release);
    }

    /// Put the record at `lsn` on the chain. Writer mutex held.
    fn extend(&self, lsn: Lsn, closes: bool) {
        let _ = self
            .first
            .compare_exchange(0, lsn.0, Ordering::AcqRel, Ordering::Relaxed);
        self.last.store(lsn.0, Ordering::Release);
        if closes {
            self.closed.store(true, Ordering::Release);
        }
    }
}

/// One log segment's self-description, equal to [`SegmentSummary::of`] over
/// the segment's bytes (see the module docs for how it is kept so).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SegmentSummary {
    /// Highest transaction id framed in the segment.
    pub max_txn: TxnId,
    /// Highest commit/checkpoint stamp in the segment.
    pub max_stamp: Timestamp,
}

impl SegmentSummary {
    fn fold(&mut self, txn: TxnId, stamp: Option<Timestamp>) {
        self.max_txn = self.max_txn.max(txn);
        if let Some(at) = stamp {
            self.max_stamp = self.max_stamp.max(at);
        }
    }

    /// Recompute the summary of a segment's bytes, which begin on a frame
    /// boundary. Stops at the first frame that does not parse or decode.
    fn of(data: &[u8]) -> SegmentSummary {
        let mut summary = SegmentSummary::default();
        let mut off = 0;
        while let Ok(body) = parse_frame(data, off) {
            let Ok((header, view)) = LogRecord::decode_view(Lsn(off as u64), &data[body.clone()])
            else {
                break;
            };
            summary.fold(header.txn, view.time_stamp());
            off = body.end;
        }
        summary
    }
}

/// One sealed (immutable) log segment.
#[derive(Clone)]
struct SealedSeg {
    start: u64,
    data: Arc<[u8]>,
    summary: SegmentSummary,
}

impl SealedSeg {
    fn end(&self) -> u64 {
        self.start + self.data.len() as u64
    }
}

/// Why the bytes at a frame offset are not one whole, intact frame.
enum FrameFault {
    /// Fewer than [`FRAME_HEADER`] bytes exist at the offset.
    Short,
    /// The length prefix runs past the bytes that exist.
    Overrun,
    /// The body does not match its stored CRC-32C.
    Crc { stored: u32, actual: u32 },
}

impl FrameFault {
    /// The typed [`CorruptionKind::LogBlock`] error a read at `lsn` reports.
    fn at(&self, lsn: Lsn) -> Error {
        let detail = match self {
            FrameFault::Short => format!("log read at {lsn} past the end of the log"),
            FrameFault::Overrun => format!("log record at {lsn} overruns the log"),
            FrameFault::Crc { stored, actual } => {
                format!("frame crc mismatch (stored {stored:08x}, computed {actual:08x})")
            }
        };
        Error::log_corruption(lsn, detail)
    }
}

/// Parse the `[u32 length][u32 crc][body]` frame at `off` in `data` (a
/// sealed segment's bytes or the active tail's), returning the body's range.
/// The single place a frame is read back: the header and the length prefix
/// are bounds-checked against the bytes that exist and the body is verified
/// against its CRC-32C, so a bit flip or a torn frame is a [`FrameFault`]
/// here and never reaches the record decoder. Pure — what a fault *counts*
/// as is the caller's business (see [`LogManager::read_frame`]).
fn parse_frame(data: &[u8], off: usize) -> std::result::Result<Range<usize>, FrameFault> {
    let body = off
        .checked_add(FRAME_HEADER)
        .filter(|body| *body <= data.len())
        .ok_or(FrameFault::Short)?;
    let end = body
        .checked_add(read_u32_at(data, off) as usize)
        .filter(|end| *end <= data.len())
        .ok_or(FrameFault::Overrun)?;
    let stored = read_u32_at(data, off + 4);
    let actual = crc32c(&data[body..end]);
    if stored != actual {
        return Err(FrameFault::Crc { stored, actual });
    }
    Ok(body..end)
}

/// An immutable snapshot of everything readers need: the sealed segments
/// and the truncation point. Published via `Arc` swap; monotonically
/// versioned.
struct SealedIndex {
    version: u64,
    /// The retention point: offsets below it are out of retention, and
    /// held (in the archive) only when archiving.
    trunc: u64,
    /// End of sealed data == start offset of the active tail segment.
    sealed_end: u64,
    /// Held sealed segments, ascending by start, contiguous: the archived
    /// ones, which end at or below `trunc`, then the retained ones.
    segs: Vec<SealedSeg>,
}

impl SealedIndex {
    /// Start of the oldest held byte: reads below it are truncated away.
    fn floor(&self) -> u64 {
        self.segs.first().map_or(self.sealed_end, |s| s.start)
    }

    fn lookup(&self, off: u64) -> Option<&SealedSeg> {
        let idx = self.segs.partition_point(|s| s.start <= off);
        let seg = self.segs.get(idx.checked_sub(1)?)?;
        (off < seg.end()).then_some(seg)
    }

    /// The same index with `segs`, at the next version.
    fn with_segs(&self, segs: Vec<SealedSeg>, sealed_end: u64) -> SealedIndex {
        SealedIndex {
            version: self.version + 1,
            trunc: self.trunc,
            sealed_end,
            segs,
        }
    }
}

/// Writer-side state: the active tail segment and the append-path
/// bookkeeping. Everything here is touched only under the writer mutex.
struct LogInner {
    /// Bytes of the active (still growing) segment.
    active: Vec<u8>,
    /// Summary of `active`.
    active_summary: SegmentSummary,
    /// Offset of `active[0]` in the log stream.
    active_start: u64,
    /// Next byte offset to be written.
    tail: u64,
    /// Reusable frame-encoding buffer: appends serialize into this and then
    /// copy once into the active segment (no per-append allocation).
    scratch: Vec<u8>,
    /// Checkpoint directory: one entry per `CheckpointEnd` record in the
    /// retained log, ascending by LSN. Written only by `append_locked`,
    /// `cut_at` and `truncate_before`. Shared out to readers as a cheap
    /// `Arc` clone; copy-on-write on the rare mutation.
    checkpoints: Arc<Vec<CheckpointInfo>>,
    /// Highest commit/checkpoint stamp seen so far; `append_stamped`
    /// clamps against it so stamps stay monotone in LSN order.
    last_stamp: Timestamp,
    /// Highest transaction id ever framed. A cut may leave it above the
    /// surviving maximum, which only skips ids.
    max_txn: TxnId,
}

/// Flush requests coalesced behind a single leader (group commit).
struct FlushQueue {
    /// Highest record-end byte offset any waiter has requested and not yet
    /// seen durable. Clamped back by `discard_unflushed` so a discarded
    /// request can never cause a later over-flush.
    requested: u64,
    /// Whether a leader is currently performing a physical flush.
    leader_active: bool,
}

/// The cache model: block id → last-use tick, one least-recently-used map.
#[derive(Default)]
struct ReadCache {
    blocks: Mutex<HashMap<u64, u64>>,
    tick: AtomicU64,
}

impl ReadCache {
    /// Classify a random read at `off` as hit or I/O and update the model:
    /// a miss inserts its block and evicts the least recently used blocks
    /// (a linear scan; the cache is small and this path is already "an
    /// I/O") until at most `cache_blocks` remain.
    fn classify(&self, off: u64, tail: u64, config: &LogConfig, stats: &IoStats) {
        if tail.saturating_sub(off) <= config.hot_tail_bytes {
            stats.add_log_cache_hit();
            return;
        }
        let mut blocks = self.blocks.lock();
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        if blocks.insert(off / CACHE_BLOCK_BYTES, tick).is_some() {
            stats.add_log_cache_hit();
            return;
        }
        stats.add_log_read_io();
        while blocks.len() > config.cache_blocks {
            let Some((&lru, _)) = blocks.iter().min_by_key(|(_, &t)| t) else {
                break;
            };
            blocks.remove(&lru);
        }
    }
}

/// A zero-copy handle to one log record's bytes.
///
/// Holds the containing segment's `Arc<[u8]>`, so the bytes stay valid (and
/// the record readable) even if the log truncates or seals concurrently —
/// this is the reader-side half of the snapshot-isolation contract.
///
/// `Clone` bumps the segment `Arc` only; no record bytes are copied. A
/// clone is `Send`, which is what lets the partitioned-redo dispatcher
/// hand records to worker threads without materializing them.
#[derive(Clone)]
pub struct RecordRef {
    data: Arc<[u8]>,
    off: usize,
    len: usize,
    lsn: Lsn,
}

impl RecordRef {
    /// The record's LSN.
    pub fn lsn(&self) -> Lsn {
        self.lsn
    }

    /// The serialized record body (without the length prefix).
    pub fn body(&self) -> &[u8] {
        &self.data[self.off..self.off + self.len]
    }

    /// Total framed length (length prefix + CRC + body): the distance to
    /// the next record's LSN.
    pub fn frame_len(&self) -> u64 {
        self.len as u64 + FRAME_HEADER as u64
    }

    /// Decode only the fixed header fields — no payload walk, no allocation.
    pub fn header(&self) -> Result<LogRecordHeader> {
        LogRecord::decode_header(self.lsn, self.body())
    }

    /// Decode the header plus a borrowed payload view (allocation-free).
    pub fn view(&self) -> Result<(LogRecordHeader, LogPayloadView<'_>)> {
        LogRecord::decode_view(self.lsn, self.body())
    }
}

/// The write-ahead log manager. Thread-safe; shared via `Arc`.
pub struct LogManager {
    inner: Mutex<LogInner>,
    /// The latest published sealed index; a read clones the `Arc` out.
    published: Mutex<Arc<SealedIndex>>,
    /// Version of the latest published index (monotonic).
    version: AtomicU64,
    /// Mirror of `LogInner::tail`, for lock-free bounds checks.
    tail: AtomicU64,
    flushed: AtomicU64,
    /// Group-commit coalescer state; followers park on `flush_cv`.
    flush_queue: Mutex<FlushQueue>,
    flush_cv: Condvar,
    cache: ReadCache,
    stats: Arc<IoStats>,
    /// The engine's observability handle (event ring + histograms); see
    /// [`LogConfig::obs`] for why it lives here.
    obs: Arc<Obs>,
    config: LogConfig,
    /// Fault injection: number of upcoming physical flush attempts that
    /// fail transiently (each attempt consumes one token). The leader's
    /// bounded retry loop absorbs them. Armed only by the unit tests.
    flush_faults: AtomicU64,
}

impl LogManager {
    /// A fresh, empty log.
    pub fn new(config: LogConfig) -> Self {
        LogManager {
            inner: Mutex::new(LogInner {
                active: Vec::new(),
                active_summary: SegmentSummary::default(),
                active_start: Lsn::FIRST.0,
                tail: Lsn::FIRST.0,
                scratch: Vec::new(),
                checkpoints: Arc::new(Vec::new()),
                last_stamp: Timestamp::ZERO,
                max_txn: TxnId::NONE,
            }),
            published: Mutex::new(Arc::new(SealedIndex {
                version: 1,
                trunc: Lsn::FIRST.0,
                sealed_end: Lsn::FIRST.0,
                segs: Vec::new(),
            })),
            version: AtomicU64::new(1),
            tail: AtomicU64::new(Lsn::FIRST.0),
            flushed: AtomicU64::new(Lsn::FIRST.0),
            flush_queue: Mutex::new(FlushQueue {
                requested: Lsn::FIRST.0,
                leader_active: false,
            }),
            flush_cv: Condvar::new(),
            cache: ReadCache::default(),
            stats: Arc::new(IoStats::new()),
            obs: Arc::new(Obs::new(&config.obs)),
            config,
            flush_faults: AtomicU64::new(0),
        }
    }

    /// The shared I/O counters for this log.
    pub fn io_stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    /// The engine's observability handle. Layers built on top of the log
    /// (buffer pool, snapshots, recovery) clone this instead of carrying
    /// their own configuration — the engine's `Obs` *is* the log's `Obs`.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// The current sealed index.
    fn load_sealed(&self) -> Arc<SealedIndex> {
        self.published.lock().clone()
    }

    /// Publish a new sealed index. Callers hold the writer mutex, so
    /// publications are serialized; the version bump is the readers' cue.
    fn publish(&self, index: SealedIndex) {
        let version = index.version;
        *self.published.lock() = Arc::new(index);
        self.version.store(version, Ordering::Release);
    }

    /// Seal the active segment into the published index. Writer mutex held.
    fn seal_active(&self, inner: &mut LogInner) {
        if inner.active.is_empty() {
            return;
        }
        let data: Arc<[u8]> = Arc::from(std::mem::take(&mut inner.active).into_boxed_slice());
        let summary = std::mem::take(&mut inner.active_summary);
        let start = inner.active_start;
        inner.active_start = start + data.len() as u64;
        let old = self.published.lock().clone();
        let mut segs = old.segs.clone();
        segs.push(SealedSeg {
            start,
            data,
            summary,
        });
        self.publish(old.with_segs(segs, inner.active_start));
    }

    /// Frame one record into the active segment. Writer mutex held; the
    /// caller publishes `inner.tail` to the atomic mirror when its batch is
    /// complete (so a multi-record batch becomes visible to readers
    /// atomically).
    fn append_locked<B, I>(&self, inner: &mut LogInner, rec: &LogRecord<B, I>) -> Lsn
    where
        B: Deref<Target = [u8]>,
        I: Deref<Target = [u8; PAGE_SIZE]>,
    {
        let lsn = Lsn(inner.tail);
        // Frame into the reusable scratch buffer: [u32 length][u32 crc][body].
        let mut scratch = std::mem::take(&mut inner.scratch);
        scratch.clear();
        scratch.extend_from_slice(&[0u8; FRAME_HEADER]);
        rec.encode_into(&mut scratch);
        let body_len = scratch.len() - FRAME_HEADER;
        let crc = crc32c(&scratch[FRAME_HEADER..]);
        scratch[..4].copy_from_slice(&(body_len as u32).to_le_bytes());
        scratch[4..8].copy_from_slice(&crc.to_le_bytes());
        // Records never straddle segments (a segment is sealed early rather
        // than split a record), so truncation at segment granularity always
        // lands on a record boundary. A record larger than `SEGMENT_BYTES`
        // lands alone in one oversized segment: the empty-active check means
        // it is never split, and the *next* append seals it.
        if !inner.active.is_empty() && inner.active.len() + scratch.len() > SEGMENT_BYTES as usize {
            self.seal_active(inner);
        }
        inner.active.extend_from_slice(&scratch);
        inner.tail += scratch.len() as u64;
        inner.scratch = scratch;
        inner.max_txn = inner.max_txn.max(rec.txn);
        let stamp = rec.payload.time_stamp();
        inner.active_summary.fold(rec.txn, stamp);
        if let Some(at) = stamp {
            // Stamps must be monotone in LSN order — the binary-search
            // invariant of SplitLSN (§5.1) and `checkpoint_before_time`.
            // `append_stamped` guarantees it at the source; flag anything
            // that arrives out of order through a raw `append` in debug
            // builds, and never let it pull the remembered stamp backward.
            debug_assert!(
                at >= inner.last_stamp,
                "non-monotone commit/checkpoint stamp at {lsn}: {at:?} < {:?}",
                inner.last_stamp
            );
            inner.last_stamp = inner.last_stamp.max(at);
        }
        if let Payload::CheckpointEnd { at, begin_lsn, .. } = rec.payload {
            Arc::make_mut(&mut inner.checkpoints).push(CheckpointInfo {
                end_lsn: lsn,
                begin_lsn,
                at,
            });
        }
        lsn
    }

    /// Frame one record onto `chain` (if any): its `prev_lsn` is the
    /// chain's head, and the chain holds its LSN (closed, if it is a
    /// `Commit` or `End`) before the writer mutex is released. The assigned
    /// LSN is written back into `rec.lsn`.
    fn append_chained<B, I>(
        &self,
        inner: &mut LogInner,
        chain: Option<&TxnChain>,
        rec: &mut LogRecord<B, I>,
    ) -> Lsn
    where
        B: Deref<Target = [u8]>,
        I: Deref<Target = [u8; PAGE_SIZE]>,
    {
        if let Some(chain) = chain {
            rec.prev_lsn = chain.last_lsn();
        }
        rec.lsn = self.append_locked(inner, rec);
        if let Some(chain) = chain {
            let closes = matches!(rec.payload, Payload::Commit { .. } | Payload::End);
            chain.extend(rec.lsn, closes);
        }
        rec.lsn
    }

    /// Append a record that belongs to no transaction's chain — a full page
    /// image or a hand-built record; assigns and returns its LSN. The
    /// engine's transaction records go through [`LogManager::append_batch`]
    /// or [`LogManager::append_stamped`], which chain them. The record is in
    /// memory (not durable) until [`LogManager::flush_to`] covers it.
    pub fn append<B, I>(&self, rec: &LogRecord<B, I>) -> Lsn
    where
        B: Deref<Target = [u8]>,
        I: Deref<Target = [u8; PAGE_SIZE]>,
    {
        let mut inner = self.inner.lock();
        let lsn = self.append_locked(&mut inner, rec);
        self.tail.store(inner.tail, Ordering::Release);
        lsn
    }

    /// Append one transaction's records — one or many — onto its `chain`
    /// under ONE writer-mutex acquisition, returning the LSN range they
    /// occupy (`start` of the first record to one past the last). This is
    /// the batched half of group commit: a transaction's records are framed
    /// together instead of paying one mutex round-trip each, and the whole
    /// batch becomes visible to readers atomically.
    ///
    /// Each record's `prev_lsn` is the chain's head as it stands when the
    /// record is framed, so the batch chains through itself; the caller's
    /// value is overwritten. A record's `prev_page_lsn` is pointed at the
    /// nearest preceding batch record touching the same (valid) page; the
    /// first record of each page keeps its caller-provided linkage. Each
    /// record's assigned LSN is written back into `rec.lsn`.
    pub fn append_batch<B, I>(&self, chain: &TxnChain, recs: &mut [LogRecord<B, I>]) -> Range<Lsn>
    where
        B: Deref<Target = [u8]>,
        I: Deref<Target = [u8; PAGE_SIZE]>,
    {
        let mut inner = self.inner.lock();
        let first = Lsn(inner.tail);
        for i in 0..recs.len() {
            // Batches are small: the nearest earlier record on the same page
            // is a short backward probe over the records already framed.
            let (framed, rest) = recs.split_at_mut(i);
            let rec = &mut rest[0];
            if rec.page.is_valid() {
                if let Some(prev) = framed.iter().rev().find(|r| r.page == rec.page) {
                    rec.prev_page_lsn = prev.lsn;
                }
            }
            self.append_chained(&mut inner, Some(chain), rec);
        }
        let end = Lsn(inner.tail);
        self.tail.store(inner.tail, Ordering::Release);
        first..end
    }

    /// Append a commit (onto its transaction's `chain`) or a checkpoint
    /// marker (`chain` = `None`), reading its wall-clock stamp from `now`
    /// *inside* the writer mutex. Folding the stamp into the append's mutex
    /// acquisition is what makes stamps monotone in LSN order without a
    /// second lock around the commit path: the stamp is additionally
    /// clamped against the last stamp issued, so even a non-monotone clock
    /// (or two clocks racing) cannot produce an out-of-order stamp. The
    /// stamped record is written back through `rec`; a commit closes its
    /// chain before the mutex is released.
    ///
    /// Returns `record LSN .. frame end`. The end is the exact byte target
    /// a committer needs durable — pass it to [`LogManager::flush_up_to`]
    /// so the flush does not have to re-acquire the writer mutex just to
    /// re-measure the frame it appended.
    pub fn append_stamped<B, I>(
        &self,
        chain: Option<&TxnChain>,
        rec: &mut LogRecord<B, I>,
        now: &dyn Fn() -> Timestamp,
    ) -> Range<Lsn>
    where
        B: Deref<Target = [u8]>,
        I: Deref<Target = [u8; PAGE_SIZE]>,
    {
        let mut inner = self.inner.lock();
        let at = now().max(inner.last_stamp);
        rec.payload.set_stamp(at);
        let lsn = self.append_chained(&mut inner, chain, rec);
        let end = Lsn(inner.tail);
        self.tail.store(inner.tail, Ordering::Release);
        lsn..end
    }

    /// Next LSN that will be assigned (the current end of the log).
    pub fn tail_lsn(&self) -> Lsn {
        Lsn(self.tail.load(Ordering::Acquire))
    }

    /// Oldest LSN in retention (the truncation point). Archived log below
    /// it is still held; see [`LogManager::earliest_available_lsn`].
    pub fn truncation_point(&self) -> Lsn {
        Lsn(self.load_sealed().trunc)
    }

    /// Highest LSN known durable.
    pub fn flushed_lsn(&self) -> Lsn {
        Lsn(self.flushed.load(Ordering::Acquire))
    }

    /// Force the log up to (and including the record at) `lsn`.
    ///
    /// Record-boundary precise: exactly the bytes through the *end of the
    /// frame at `lsn`* are made durable and charged as `log_bytes_written`
    /// — never the rest of the tail, so a committer is accounted only its
    /// own frames, not other in-flight transactions' unflushed bytes.
    /// `lsn` at or past the tail means "flush everything" (the
    /// `flush_to(tail_lsn())` idiom).
    ///
    /// Concurrent requests are *coalesced*: one leader performs a single
    /// sequential flush covering every enqueued request and wakes the
    /// followers it covered — N concurrent committers pay one physical
    /// flush (counted in `log_flushes`). Returns only once the requested
    /// record is durable (or has been discarded by crash simulation).
    pub fn flush_to(&self, lsn: Lsn) {
        let Some(target) = self.flush_target(lsn) else {
            return;
        };
        self.flush_bytes(target);
    }

    /// Force the log up to, but *not* including, the record boundary `excl`
    /// — e.g. a SplitLSN, where everything strictly before the split must be
    /// durable but the record at the split does not.
    pub fn flush_up_to(&self, excl: Lsn) {
        let target = excl.0.min(self.tail.load(Ordering::Acquire));
        self.flush_bytes(target);
    }

    /// The byte offset that makes the record at `lsn` durable: the end of
    /// its frame, or the current tail for `lsn` at/past the tail. `None`
    /// when there is nothing to do — the record was truncated away
    /// (truncation never passes the flushed LSN, so it is already durable)
    /// or does not resolve.
    fn flush_target(&self, lsn: Lsn) -> Option<u64> {
        loop {
            let tail = self.tail.load(Ordering::Acquire);
            if lsn.0 >= tail {
                return Some(tail);
            }
            let index = self.load_sealed();
            if lsn.0 < index.trunc {
                return None;
            }
            if lsn.0 < index.sealed_end {
                // Anomalous LSN (mid-record offset, corrupt length prefix):
                // fall back to flushing the whole tail rather than silently
                // skipping — callers like the buffer pool's write-back rely
                // on flush_to upholding the WAL rule unconditionally.
                let end = index.lookup(lsn.0).and_then(|seg| {
                    let body = self.read_frame(&seg.data, lsn.0 - seg.start, lsn).ok()?;
                    Some(seg.start + body.end as u64)
                });
                return Some(end.unwrap_or(tail));
            }
            let inner = self.inner.lock();
            if inner.active_start > lsn.0 {
                // Sealed between the snapshot load and the lock; retry.
                continue;
            }
            // A frame that no longer parses raced a discard (or is damaged
            // in memory): flush whatever still exists.
            let off = (lsn.0 - inner.active_start) as usize;
            return Some(
                parse_frame(&inner.active, off)
                    .map_or(inner.tail, |body| inner.active_start + body.end as u64),
            );
        }
    }

    /// Make everything below byte offset `target` durable, coalescing with
    /// concurrent requests (leader/follower). Followers are woken only once
    /// their target is covered; a request whose bytes were discarded by a
    /// racing `discard_unflushed` is abandoned, never spun on.
    fn flush_bytes(&self, target: u64) {
        if self.flushed.load(Ordering::Acquire) >= target {
            return;
        }
        let mut queue = self.flush_queue.lock();
        loop {
            if self.flushed.load(Ordering::Acquire) >= target {
                return;
            }
            if target > self.tail.load(Ordering::Acquire) {
                // The requested bytes no longer exist (crash simulation
                // discarded the unflushed tail); nothing to wait for.
                return;
            }
            if queue.requested < target {
                queue.requested = target;
            }
            if queue.leader_active {
                // Follower: park until the leader reports completion, then
                // re-check coverage (no wakeup before durability).
                let parked_at = self.obs.now_us();
                self.flush_cv.wait(&mut queue);
                self.obs.record(
                    EventKind::GroupFollowerWait,
                    target,
                    0,
                    self.obs.now_us().saturating_sub(parked_at),
                );
                continue;
            }
            // Leader: write everything requested so far in one sequential
            // flush.
            let want = queue.requested;
            queue.leader_active = true;
            drop(queue);
            let flush_started = self.obs.now_us();
            // Physical flush attempt, with bounded retry/backoff against
            // transient device errors. `leader_active` stays set across
            // retries, so followers remain parked through every failed
            // attempt and are only woken (below) after the flush that
            // actually succeeded — a follower can never observe a wakeup
            // for bytes that are not durable yet.
            let mut attempt = 0;
            loop {
                if self.config.flush_delay_us > 0 {
                    // Model the device's sync latency (fsync / write barrier).
                    std::thread::sleep(std::time::Duration::from_micros(
                        self.config.flush_delay_us,
                    ));
                }
                let transient_fault = self
                    .flush_faults
                    .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
                    .is_ok();
                if !transient_fault || attempt >= MAX_FLUSH_RETRIES {
                    break;
                }
                attempt += 1;
                self.stats.add_io_retry();
                // Exponential backoff, capped: 10 µs, 20 µs, 40 µs, …
                std::thread::sleep(std::time::Duration::from_micros(10u64 << attempt.min(6)));
            }
            // The writer mutex is held across read-tail + advance-flushed so
            // a concurrent `discard_unflushed` can never observe (or create)
            // `flushed > tail`.
            let inner = self.inner.lock();
            let want = want.min(inner.tail);
            let prev = self.flushed.fetch_max(want, Ordering::AcqRel);
            drop(inner);
            if want > prev {
                self.stats.add_log_bytes_written(want - prev);
                self.stats.add_log_flush();
                // Recorded in the same branch as `add_log_flush` so the
                // flush-stall histogram count equals `log_flushes` exactly.
                let dur = self.obs.now_us().saturating_sub(flush_started);
                self.obs.flush_stall_us(dur);
                self.obs.record(EventKind::LogFlush, want, want - prev, dur);
                self.obs.record(EventKind::GroupLeaderFlush, want, 0, dur);
            }
            queue = self.flush_queue.lock();
            queue.leader_active = false;
            self.flush_cv.notify_all();
        }
    }

    /// Resolve a record's bytes without touching the cache model. A record
    /// in a sealed segment, archived or retained, is read with no lock held;
    /// only tail-segment reads take the writer mutex, and those copy the
    /// frame out so the mutex is never held across decoding. A record below
    /// the oldest held segment is [`Error::LogTruncated`]. Takes the index
    /// the caller already loaded, so a read pays one load.
    fn read_ref_in(&self, index: &SealedIndex, lsn: Lsn) -> Result<RecordRef> {
        if lsn.0 < index.floor() {
            return Err(Error::LogTruncated(lsn));
        }
        if lsn.0 < index.sealed_end {
            let seg = index
                .lookup(lsn.0)
                .ok_or_else(|| Error::corruption(format!("log offset {} out of range", lsn.0)))?;
            return self.ref_in_segment(seg, lsn);
        }
        // Tail range: read under the writer mutex, copying the frame out.
        let inner = self.inner.lock();
        if inner.active_start > lsn.0 {
            // The segment sealed between the index load and the lock: read
            // it from the index that sealing published.
            drop(inner);
            return self.read_ref_in(&self.load_sealed(), lsn);
        }
        let body = self.read_frame(&inner.active, lsn.0 - inner.active_start, lsn)?;
        let data: Arc<[u8]> = Arc::from(&inner.active[body]);
        Ok(RecordRef {
            len: data.len(),
            data,
            off: 0,
            lsn,
        })
    }

    fn ref_in_segment(&self, seg: &SealedSeg, lsn: Lsn) -> Result<RecordRef> {
        let body = self.read_frame(&seg.data, lsn.0 - seg.start, lsn)?;
        Ok(RecordRef {
            data: seg.data.clone(),
            off: body.start,
            len: body.len(),
            lsn,
        })
    }

    /// [`parse_frame`] for a reader of the record at `lsn`, `off` bytes into
    /// `data`: every fault is the typed error, and a CRC mismatch — damage,
    /// as opposed to an LSN that is not a record boundary — is counted in
    /// `corruptions_detected`.
    fn read_frame(&self, data: &[u8], off: u64, lsn: Lsn) -> Result<Range<usize>> {
        parse_frame(data, off as usize).map_err(|fault| {
            if matches!(fault, FrameFault::Crc { .. }) {
                self.stats.add_corruption_detected();
            }
            fault.at(lsn)
        })
    }

    /// Read the record at `lsn` as a zero-copy [`RecordRef`], accounting the
    /// read through the cache model. This is the chain-walk primitive:
    /// header and payload decode straight from the segment bytes.
    pub fn get_record_ref(&self, lsn: Lsn) -> Result<RecordRef> {
        let index = self.load_sealed();
        if lsn.0 < index.trunc {
            return Err(Error::LogTruncated(lsn));
        }
        self.cache.classify(
            lsn.0,
            self.tail.load(Ordering::Acquire),
            &self.config,
            &self.stats,
        );
        self.read_ref_in(&index, lsn)
    }

    /// Iterate records in `[from, to)` in order, handing `f` each one as a
    /// zero-copy [`RecordRef`] — to decode in place, or to `clone` (an `Arc`
    /// bump) and ship to another thread, which is how partitioned redo fans
    /// out. `f` returns `Ok(false)` to stop. Returns the LSN one past the
    /// last record visited. Reads every segment the log holds, archived
    /// history below the truncation point included; a record below the
    /// oldest held segment is [`Error::LogTruncated`]. Sequential bytes are
    /// accounted as `log_bytes_scanned`. Holds the index it loaded while
    /// the log's version stands still, so it takes no lock over sealed
    /// history.
    pub fn scan_refs(
        &self,
        from: Lsn,
        to: Lsn,
        mut f: impl FnMut(&RecordRef) -> Result<bool>,
    ) -> Result<Lsn> {
        let mut cur = from;
        let mut index = self.load_sealed();
        loop {
            if index.version != self.version.load(Ordering::Acquire) {
                index = self.load_sealed();
            }
            if cur.0 >= self.tail.load(Ordering::Acquire) || cur >= to {
                return Ok(cur);
            }
            let rec_ref = self.read_ref_in(&index, cur)?;
            let frame = rec_ref.frame_len();
            self.stats.add_log_bytes_scanned(frame);
            cur = Lsn(cur.0 + frame);
            if !f(&rec_ref)? {
                return Ok(cur);
            }
        }
    }

    /// [`LogManager::scan_refs`], yielding each record's header and borrowed
    /// payload view. The workhorse of the repair harvest.
    pub fn scan_views(
        &self,
        from: Lsn,
        to: Lsn,
        mut f: impl FnMut(&LogRecordHeader, &LogPayloadView<'_>) -> Result<bool>,
    ) -> Result<Lsn> {
        self.scan_refs(from, to, |rec_ref| {
            let (header, view) = rec_ref.view()?;
            f(&header, &view)
        })
    }

    /// The checkpoint directory (ascending by LSN), as a cheap shared view.
    pub fn checkpoints(&self) -> Arc<Vec<CheckpointInfo>> {
        self.inner.lock().checkpoints.clone()
    }

    /// Latest checkpoint whose *end* record is at or before `lsn`.
    /// Binary-searched: the directory is ascending by `end_lsn`.
    pub fn checkpoint_before(&self, lsn: Lsn) -> Option<CheckpointInfo> {
        let dir = self.checkpoints();
        let idx = dir.partition_point(|c| c.end_lsn <= lsn);
        (idx > 0).then(|| dir[idx - 1])
    }

    /// Latest checkpoint taken at or before wall-clock `t`. Binary-searched:
    /// checkpoint times are monotone in log order.
    pub fn checkpoint_before_time(&self, t: Timestamp) -> Option<CheckpointInfo> {
        let dir = self.checkpoints();
        let idx = dir.partition_point(|c| c.at <= t);
        (idx > 0).then(|| dir[idx - 1])
    }

    /// Earliest wall-clock time still covered by the retained log: the stamp
    /// of the first stamped record at or after the truncation point, if any.
    /// Retention cuts land on a `CheckpointBegin`, so the read usually stops
    /// at the first record.
    pub fn earliest_retained_time(&self) -> Option<Timestamp> {
        let mut first = None;
        self.scan_refs(self.truncation_point(), Lsn::MAX, |rec| {
            first = rec.view()?.1.time_stamp();
            Ok(first.is_none())
        })
        .ok()?;
        first
    }

    /// Highest transaction id the log has ever framed. Restart floors the
    /// id allocator at it: analysis sees only the ids after the newest
    /// checkpoint's begin, and ids of committed transactions older than
    /// that are still in the retained log.
    pub fn max_txn_id(&self) -> TxnId {
        self.inner.lock().max_txn
    }

    /// Start of the first retained segment whose summary `holds`: the
    /// earliest place a record the predicate looks for can be. The active
    /// tail counts as a segment; the tail LSN when no segment holds. A
    /// segment's maxima only grow as it fills, so a predicate monotone in
    /// them (`max_txn >= t`, `max_stamp >= t`) never skips a segment that
    /// holds a matching record. Flashback's harvest starts here.
    pub fn first_segment_where(&self, holds: impl Fn(&SegmentSummary) -> bool) -> Lsn {
        let inner = self.inner.lock();
        let index = self.published.lock().clone();
        let archived = index.segs.partition_point(|s| s.start < index.trunc);
        let sealed = index.segs[archived..].iter().find(|s| holds(&s.summary));
        Lsn(match sealed {
            Some(seg) => seg.start,
            None if !inner.active.is_empty() && holds(&inner.active_summary) => inner.active_start,
            None => inner.tail,
        })
    }

    /// Move the truncation point forward to the end of the last whole
    /// segment before `lsn`, dropping the segments it passes, or keeping
    /// them as the archive when archiving is enabled. Returns the new
    /// truncation point. Never truncates past the flushed LSN.
    ///
    /// Publication, not destruction: readers holding the previous index or a
    /// [`RecordRef`] into a dropped segment keep reading it; the memory is
    /// freed when the last holder drops.
    pub fn truncate_before(&self, lsn: Lsn) -> Lsn {
        let archive = self.config.archive_on_truncate;
        // tidy: lock-order(log_inner < log_published) -- the writer mutex is
        // held across every published-index swap, never the reverse.
        let mut inner = self.inner.lock();
        let limit = lsn.0.min(self.flushed.load(Ordering::Acquire));
        let old = self.published.lock().clone();
        let mut segs = old.segs.clone();
        let mut sealed_end = old.sealed_end;

        let passed = segs.iter().take_while(|s| s.end() <= limit).count();
        let mut trunc = segs[..passed].last().map_or(0, SealedSeg::end);
        // The active tail is the last "segment": it truncates too once every
        // sealed segment is passed and it is itself fully covered.
        let end = inner.active_start + inner.active.len() as u64;
        if passed == segs.len() && !inner.active.is_empty() && end <= limit {
            segs.push(SealedSeg {
                start: inner.active_start,
                data: Arc::from(std::mem::take(&mut inner.active).into_boxed_slice()),
                summary: std::mem::take(&mut inner.active_summary),
            });
            inner.active_start = end;
            trunc = end;
            sealed_end = end;
        }
        let trunc = trunc.max(old.trunc);
        if !archive {
            segs.retain(|s| s.start >= trunc);
        }
        if trunc > old.trunc {
            self.publish(SealedIndex {
                version: old.version + 1,
                trunc,
                sealed_end,
                segs,
            });
        }
        if !archive {
            let dir = Arc::make_mut(&mut inner.checkpoints);
            dir.retain(|c| c.begin_lsn.0 >= trunc);
        }
        Lsn(trunc)
    }

    /// Earliest LSN any read reaches: the start of the oldest segment the
    /// log holds — below the truncation point when archiving.
    pub fn earliest_available_lsn(&self) -> Lsn {
        Lsn(self.load_sealed().floor())
    }

    /// Read a record as a zero-copy [`RecordRef`] from any segment the log
    /// holds, archived history included, without cache accounting. The
    /// analysis seed uses it, since the checkpoint it seeds from may lie in
    /// the archive; the as-of machinery reads through
    /// [`LogManager::get_record_ref`], which stays retention-bound.
    pub fn get_record_deep(&self, lsn: Lsn) -> Result<RecordRef> {
        self.read_ref_in(&self.load_sealed(), lsn)
    }

    /// A second log holding this one's records below the frame boundary
    /// `cut` (clamped to the tail), as a restored database's log. The fork
    /// shares every sealed segment's bytes and copies only the active tail;
    /// then the crash cut, `cut_at`, cuts it, so its checkpoint directory
    /// and segment summaries follow exactly as after a crash. Everything
    /// the fork holds is durable and in its retention, the archive
    /// included: it is a new database's whole history. It has its own I/O
    /// counters and observability handle; appends to either log are
    /// invisible to the other.
    pub fn fork(&self, cut: Lsn) -> LogManager {
        let fork = LogManager::new(self.config.clone());
        let inner = self.inner.lock();
        let live = self.load_sealed();
        let mut forked = fork.inner.lock();
        forked.active = inner.active.clone();
        forked.active_summary = inner.active_summary;
        forked.active_start = inner.active_start;
        forked.tail = inner.tail;
        forked.checkpoints = inner.checkpoints.clone();
        forked.max_txn = inner.max_txn;
        let cut = cut.0.min(inner.tail);
        drop(inner);
        fork.tail.store(forked.tail, Ordering::Release);
        fork.flushed.store(forked.tail, Ordering::Release);
        let mut index = fork
            .load_sealed()
            .with_segs(live.segs.clone(), live.sealed_end);
        index.trunc = live.floor();
        fork.publish(index);
        fork.cut_at(&mut forked, cut);
        drop(forked);
        fork
    }

    /// Cut the log at byte offset `cut` (a frame boundary): nothing at or
    /// after it survives, everything before it stays readable. The one place
    /// a log loses its end. Whole later segments evaporate; the segment the
    /// cut falls inside is *replaced* by a shorter copy — sealed bytes are
    /// never mutated in place, so a reader holding a [`RecordRef`] past the
    /// cut still decodes it. The tail, the flushed LSN, the published index,
    /// the checkpoint directory, the stamp clamp, the read cache and the
    /// flush queue all follow. Writer mutex held.
    fn cut_at(&self, inner: &mut LogInner, cut: u64) {
        let old = self.published.lock().clone();
        let mut segs = old.segs.clone();
        segs.retain(|s| s.start < cut);
        if let Some(last) = segs.last_mut() {
            let keep = (cut - last.start) as usize;
            if keep < last.data.len() {
                last.data = Arc::from(&last.data[..keep]);
                last.summary = SegmentSummary::of(&last.data);
            }
        }
        let keep = cut.saturating_sub(inner.active_start) as usize;
        if keep < inner.active.len() {
            inner.active.truncate(keep);
            inner.active_summary = SegmentSummary::of(&inner.active);
        }
        let tail = cut.max(old.trunc);
        inner.tail = tail;
        if inner.active.is_empty() {
            inner.active_start = tail;
        }
        self.tail.store(tail, Ordering::Release);
        // Bytes past the cut are gone, durable or not (a damage cut lands
        // below the flushed LSN): the clean prefix is the durable horizon.
        self.flushed.fetch_min(tail, Ordering::AcqRel);
        inner.last_stamp = segs
            .iter()
            .map(|s| s.summary.max_stamp)
            .fold(inner.active_summary.max_stamp, Timestamp::max);
        self.publish(old.with_segs(segs, inner.active_start));
        Arc::make_mut(&mut inner.checkpoints).retain(|c| c.end_lsn.0 < tail);
        self.cache.blocks.lock().clear();
        // Outstanding flush requests above the new tail point at bytes that
        // no longer exist: clamp them (so a stale high-water mark can never
        // cause a later over-flush) and wake every parked follower to
        // re-check — each sees its target past the tail and abandons it.
        {
            let mut queue = self.flush_queue.lock();
            queue.requested = queue.requested.min(tail);
            self.flush_cv.notify_all();
        }
    }

    /// Discard everything after the flushed LSN — what a crash does to the
    /// volatile log tail. Used by crash simulation before restart recovery.
    /// Everything at or below `flushed_lsn` survives; nothing after it does.
    pub fn discard_unflushed(&self) {
        let mut inner = self.inner.lock();
        self.cut_at(&mut inner, self.flushed.load(Ordering::Acquire));
    }

    /// Cut the log at the frame a read failed on, if that frame is damaged:
    /// the restart-time half of the media-hardening contract. `err` is what
    /// the read returned; only a [`CorruptionKind::LogBlock`] error naming a
    /// frame in the retained log — at or above the truncation point, never
    /// in the archive — qualifies, and only that one frame is
    /// parsed again. When it does not parse, the log is cut there with
    /// [`LogManager::discard_unflushed`]'s cut, the flushed LSN is pulled
    /// back with it, and `true` is returned: everything before the frame —
    /// the clean prefix up to the damage — stays readable. A frame that
    /// parses (the error was not damage), or one outside the retained log,
    /// is left alone and `false` is returned.
    ///
    /// A torn or overrunning frame is counted in `corruptions_detected`
    /// here; a CRC mismatch was already counted by the read that met it, so
    /// each cut counts exactly one.
    pub fn cut_at_damage(&self, err: &Error) -> bool {
        let &Error::Corruption {
            kind: CorruptionKind::LogBlock,
            lsn: Some(Lsn(at)),
            ..
        } = err
        else {
            return false;
        };
        let mut inner = self.inner.lock();
        let index = self.published.lock().clone();
        if at < index.trunc {
            return false;
        }
        let parsed = match index.lookup(at) {
            Some(seg) => parse_frame(&seg.data, (at - seg.start) as usize),
            None if (inner.active_start..inner.tail).contains(&at) => {
                parse_frame(&inner.active, (at - inner.active_start) as usize)
            }
            None => return false,
        };
        let Err(fault) = parsed else { return false };
        if !matches!(fault, FrameFault::Crc { .. }) {
            self.stats.add_corruption_detected();
        }
        self.cut_at(&mut inner, at);
        true
    }

    /// Fault injection: XOR one byte of the retained log at stream offset
    /// `offset`. Sealed-segment immutability is preserved by *replacing*
    /// the containing segment with a freshly-corrupted copy and publishing
    /// a new index — live readers holding the old `Arc` keep the clean
    /// bytes; new reads see the damage. Returns `false` if the offset is
    /// not in the retained window.
    pub fn corrupt_byte_at(&self, offset: u64, xor: u8) -> bool {
        if xor == 0 {
            return false;
        }
        let mut inner = self.inner.lock();
        let old = self.published.lock().clone();
        if offset >= inner.tail || offset < old.trunc {
            return false;
        }
        if offset >= inner.active_start {
            let off = (offset - inner.active_start) as usize;
            if off >= inner.active.len() {
                return false;
            }
            inner.active[off] ^= xor;
            return true;
        }
        let mut segs = old.segs.clone();
        for seg in segs.iter_mut() {
            if offset >= seg.start && offset < seg.end() {
                let mut data = seg.data.to_vec();
                data[(offset - seg.start) as usize] ^= xor;
                seg.data = Arc::from(data.into_boxed_slice());
                self.publish(old.with_segs(segs, old.sealed_end));
                return true;
            }
        }
        false
    }

    /// Total bytes currently retained.
    pub fn retained_bytes(&self) -> u64 {
        self.tail.load(Ordering::Acquire) - self.load_sealed().trunc
    }

    /// Total bytes ever appended.
    pub fn total_bytes(&self) -> u64 {
        self.tail.load(Ordering::Acquire) - Lsn::FIRST.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::PayloadKind;
    use rewind_common::{ObjectId, PageId, TxnId};

    impl LogManager {
        /// Fault injection: make the next `n` physical flush attempts fail
        /// transiently (a device EIO that clears on retry). The leader retries
        /// with bounded backoff — followers stay parked until the retry
        /// actually succeeds, never waking on a failed attempt — and each retry
        /// is counted in [`IoStats::add_io_retry`].
        fn set_flush_faults(&self, n: u64) {
            self.flush_faults.store(n, Ordering::Release);
        }
    }

    type Rec = LogRecord<&'static [u8], &'static [u8; PAGE_SIZE]>;

    /// A checkpoint's serialized empty ATT and DPT: two zero counts.
    const EMPTY_TABLES: &[u8] = &[0; 8];

    /// Row bytes for [`insert_rec`].
    static FILL: [u8; 5000] = [7; 5000];

    fn rec(txn: u64, payload: LogPayloadView<'static>) -> Rec {
        LogRecord {
            lsn: Lsn::NULL,
            txn: TxnId(txn),
            prev_lsn: Lsn::NULL,
            page: PageId(1),
            prev_page_lsn: Lsn::NULL,
            object: ObjectId(1),
            undo_next: Lsn::NULL,
            flags: 0,
            payload,
        }
    }

    /// The record at `lsn`, read and decoded the way chain walks read it.
    fn get(log: &LogManager, lsn: Lsn) -> Result<RecordRef> {
        let r = log.get_record_ref(lsn)?;
        r.view()?;
        Ok(r)
    }

    fn insert_rec(txn: u64, n: usize) -> Rec {
        rec(
            txn,
            LogPayloadView::InsertRecord {
                slot: 0,
                bytes: &FILL[..n],
            },
        )
    }

    #[test]
    fn append_assigns_increasing_lsns_and_reads_back() {
        let log = LogManager::new(LogConfig::default());
        let a = log.append(&insert_rec(1, 10));
        let b = log.append(&insert_rec(1, 20));
        let c = log.append(&rec(
            1,
            LogPayloadView::Commit {
                at: Timestamp::from_secs(1),
            },
        ));
        assert!(a < b && b < c);
        assert_eq!(a, Lsn::FIRST);
        let back = get(&log, b).unwrap();
        assert_eq!(back.lsn(), b);
        match back.view().unwrap().1 {
            LogPayloadView::InsertRecord { bytes, .. } => assert_eq!(bytes.len(), 20),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn record_ref_headers_match_owned_decode() {
        let log = LogManager::new(LogConfig::default());
        let mut lsns = Vec::new();
        for i in 0..300 {
            lsns.push(log.append(&insert_rec(i, 3000)));
        }
        for (i, &l) in lsns.iter().enumerate() {
            let appended = insert_rec(i as u64, 3000);
            let r = log.get_record_ref(l).unwrap();
            let (header, view) = r.view().unwrap();
            assert_eq!(r.header().unwrap(), header);
            assert_eq!(
                (header.lsn, header.txn, header.kind),
                (l, appended.txn, PayloadKind::InsertRecord)
            );
            assert_eq!(view, appended.payload);
        }
    }

    #[test]
    fn flush_accounts_sequential_bytes() {
        let log = LogManager::new(LogConfig::default());
        let a = log.append(&insert_rec(1, 100));
        assert!(log.flushed_lsn() <= a);
        log.flush_to(a);
        assert_eq!(log.flushed_lsn(), log.tail_lsn());
        let s = log.io_stats().snapshot();
        assert!(s.log_bytes_written > 100);
        // idempotent
        log.flush_to(a);
        assert_eq!(
            log.io_stats().snapshot().log_bytes_written,
            s.log_bytes_written
        );
    }

    #[test]
    fn scan_visits_records_in_order_and_respects_bounds() {
        let log = LogManager::new(LogConfig::default());
        let mut lsns = Vec::new();
        for i in 0..10 {
            lsns.push(log.append(&insert_rec(i, 8)));
        }
        let mut seen = Vec::new();
        log.scan_refs(lsns[2], lsns[7], |r| {
            seen.push(r.lsn());
            Ok(true)
        })
        .unwrap();
        assert_eq!(seen, lsns[2..7].to_vec());
        // early stop
        let mut count = 0;
        log.scan_refs(Lsn::FIRST, Lsn::MAX, |_| {
            count += 1;
            Ok(count < 3)
        })
        .unwrap();
        assert_eq!(count, 3);
        assert!(log.io_stats().snapshot().log_bytes_scanned > 0);
    }

    #[test]
    fn scan_views_sees_the_same_stream_as_scan() {
        let log = LogManager::new(LogConfig::default());
        for i in 0..50 {
            log.append(&insert_rec(i, 64));
            if i % 7 == 0 {
                log.append(&rec(
                    i,
                    LogPayloadView::Commit {
                        at: Timestamp::from_secs(i),
                    },
                ));
            }
        }
        let mut owned = Vec::new();
        log.scan_refs(Lsn::FIRST, Lsn::MAX, |r| {
            let (h, v) = r.view()?;
            owned.push((h.lsn, h.txn, v.kind()));
            Ok(true)
        })
        .unwrap();
        let mut viewed = Vec::new();
        log.scan_views(Lsn::FIRST, Lsn::MAX, |h, v| {
            assert_eq!(h.kind, v.kind());
            viewed.push((h.lsn, h.txn, h.kind));
            Ok(true)
        })
        .unwrap();
        assert_eq!(owned, viewed);
    }

    #[test]
    fn segments_span_boundaries() {
        let log = LogManager::new(LogConfig::default());
        // Write > 2 MiB of records so several segments exist, with one record
        // likely straddling a boundary.
        let mut lsns = Vec::new();
        for i in 0..500 {
            lsns.push(log.append(&insert_rec(i, 5000)));
        }
        for &l in &lsns {
            let r = get(&log, l).unwrap();
            assert_eq!(r.lsn(), l);
        }
        assert!(log.total_bytes() > 2 * SEGMENT_BYTES);
    }

    #[test]
    fn truncation_drops_old_records() {
        let log = LogManager::new(LogConfig::default());
        let mut lsns = Vec::new();
        for i in 0..600 {
            let l = log.append(&insert_rec(i, 5000));
            log.append(&rec(
                i,
                LogPayloadView::Commit {
                    at: Timestamp::from_secs(i),
                },
            ));
            lsns.push(l);
        }
        log.flush_to(log.tail_lsn());
        let mid = lsns[300];
        let new_trunc = log.truncate_before(mid);
        assert!(new_trunc <= mid);
        assert!(new_trunc > Lsn::FIRST);
        assert!(matches!(get(&log, lsns[0]), Err(Error::LogTruncated(_))));
        assert!(get(&log, lsns[400]).is_ok());
        assert!(log.retained_bytes() < log.total_bytes());
        // earliest retained time reflects truncation
        let t = log.earliest_retained_time().unwrap();
        assert!(t > Timestamp::ZERO);
    }

    #[test]
    fn truncation_never_passes_unflushed_tail() {
        let log = LogManager::new(LogConfig::default());
        for i in 0..600 {
            log.append(&insert_rec(i, 5000));
        }
        // nothing flushed: truncate_before must not remove anything
        let t = log.truncate_before(log.tail_lsn());
        assert_eq!(t, Lsn::FIRST);
    }

    #[test]
    fn checkpoint_directory() {
        let log = LogManager::new(LogConfig::default());
        log.append(&insert_rec(1, 10));
        let b1 = log.append(&rec(
            0,
            LogPayloadView::CheckpointBegin {
                at: Timestamp::from_secs(5),
            },
        ));
        let e1 = log.append(&rec(
            0,
            LogPayloadView::CheckpointEnd {
                at: Timestamp::from_secs(5),
                begin_lsn: b1,
                tables: EMPTY_TABLES,
            },
        ));
        log.append(&insert_rec(1, 10));
        let b2 = log.append(&rec(
            0,
            LogPayloadView::CheckpointBegin {
                at: Timestamp::from_secs(9),
            },
        ));
        let e2 = log.append(&rec(
            0,
            LogPayloadView::CheckpointEnd {
                at: Timestamp::from_secs(9),
                begin_lsn: b2,
                tables: EMPTY_TABLES,
            },
        ));
        assert_eq!(log.checkpoints().len(), 2);
        assert_eq!(log.checkpoint_before(e2).unwrap().end_lsn, e2);
        assert_eq!(log.checkpoint_before(Lsn(e2.0 - 1)).unwrap().end_lsn, e1);
        assert_eq!(
            log.checkpoint_before_time(Timestamp::from_secs(7))
                .unwrap()
                .end_lsn,
            e1
        );
        assert!(log
            .checkpoint_before_time(Timestamp::from_secs(1))
            .is_none());
    }

    #[test]
    fn cache_model_hits_tail_and_misses_cold_history() {
        let log = LogManager::new(LogConfig {
            hot_tail_bytes: 1024,
            cache_blocks: 2,
            ..LogConfig::default()
        });
        let mut lsns = Vec::new();
        for i in 0..2000 {
            lsns.push(log.append(&insert_rec(i, 900)));
        }
        // tail read: hit
        let s0 = log.io_stats().snapshot();
        get(&log, *lsns.last().unwrap()).unwrap();
        let s1 = log.io_stats().snapshot();
        assert_eq!(s1.log_read_ios, s0.log_read_ios);
        assert_eq!(s1.log_cache_hits, s0.log_cache_hits + 1);
        // cold read: miss, then hit on re-read
        get(&log, lsns[0]).unwrap();
        let s2 = log.io_stats().snapshot();
        assert_eq!(s2.log_read_ios, s1.log_read_ios + 1);
        get(&log, lsns[0]).unwrap();
        let s3 = log.io_stats().snapshot();
        assert_eq!(s3.log_read_ios, s2.log_read_ios);
        // far-apart cold reads evict each other (cache_blocks = 2)
        get(&log, lsns[500]).unwrap();
        get(&log, lsns[1000]).unwrap();
        get(&log, lsns[0]).unwrap(); // evicted by now
        let s4 = log.io_stats().snapshot();
        assert!(s4.log_read_ios >= s3.log_read_ios + 2);
    }

    /// Concurrent misses never leave the model holding more blocks than it
    /// is sized for: four threads of cold reads over 64 blocks, 4 blocks.
    #[test]
    fn cache_model_never_holds_more_than_its_blocks() {
        let config = LogConfig {
            hot_tail_bytes: 0,
            cache_blocks: 4,
            ..LogConfig::default()
        };
        let (cache, stats) = (ReadCache::default(), IoStats::new());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (cache, stats, config) = (&cache, &stats, &config);
                s.spawn(move || {
                    for i in 0..200_000u64 {
                        let block = (i * 7 + t * 13) % 64;
                        cache.classify(block * CACHE_BLOCK_BYTES, u64::MAX, config, stats);
                    }
                });
            }
        });
        let held = cache.blocks.lock().len();
        assert!(held <= 4, "the model holds {held} blocks, sized for 4");
        let s = stats.snapshot();
        assert_eq!(s.log_cache_hits + s.log_read_ios, 800_000);
    }

    #[test]
    fn get_past_tail_is_error() {
        let log = LogManager::new(LogConfig::default());
        log.append(&insert_rec(1, 10));
        assert!(get(&log, log.tail_lsn()).is_err());
        assert!(get(&log, Lsn(999_999)).is_err());
    }

    #[test]
    fn flush_charges_only_requested_frames() {
        // Regression for the over-flush/over-charge bug: flush_to(lsn) used
        // to ignore its argument and flush (and charge) the entire tail, so
        // one committer was billed for other transactions' unflushed bytes.
        let log = LogManager::new(LogConfig::default());
        let a = log.append(&insert_rec(1, 100));
        let b = log.append(&insert_rec(2, 200));
        let frame_a = log.get_record_ref(a).unwrap().frame_len();
        let frame_b = log.get_record_ref(b).unwrap().frame_len();
        let s0 = log.io_stats().snapshot();

        // Committer 1 forces only its own record…
        log.flush_to(a);
        let s1 = log.io_stats().snapshot();
        assert_eq!(s1.log_bytes_written - s0.log_bytes_written, frame_a);
        assert_eq!(log.flushed_lsn(), b, "flush stops at a's frame end");
        assert!(log.flushed_lsn() < log.tail_lsn(), "b must stay unflushed");

        // …and committer 2 is charged exactly its own frame afterwards.
        log.flush_to(b);
        let s2 = log.io_stats().snapshot();
        assert_eq!(s2.log_bytes_written - s1.log_bytes_written, frame_b);
        assert_eq!(log.flushed_lsn(), log.tail_lsn());
        assert_eq!(s2.log_flushes - s0.log_flushes, 2);

        // Idempotent: re-flushing charges nothing and performs no flush.
        log.flush_to(a);
        log.flush_to(b);
        let s3 = log.io_stats().snapshot();
        assert_eq!(s3.log_bytes_written, s2.log_bytes_written);
        assert_eq!(s3.log_flushes, s2.log_flushes);
    }

    #[test]
    fn flush_up_to_excludes_the_boundary_record() {
        let log = LogManager::new(LogConfig::default());
        let a = log.append(&insert_rec(1, 100));
        let b = log.append(&insert_rec(1, 100));
        // Flush strictly before b: a is durable, b is not.
        log.flush_up_to(b);
        assert_eq!(log.flushed_lsn(), b);
        assert!(log.flushed_lsn() < log.tail_lsn());
        let _ = a;
    }

    #[test]
    fn append_batch_chains_and_writes_back_lsns() {
        let log = LogManager::new(LogConfig::default());
        let chain = TxnChain::default();
        let head = log.append_batch(&chain, &mut [insert_rec(7, 16)]).start;
        let mut batch: Vec<Rec> = (0..5).map(|_| insert_rec(7, 32)).collect();
        // The chain, not the caller, decides `prev_lsn`.
        batch[0].prev_lsn = Lsn(99);
        batch[0].prev_page_lsn = Lsn(42);
        let range = log.append_batch(&chain, &mut batch);
        assert_eq!(range.start, batch[0].lsn);
        assert_eq!(range.end, log.tail_lsn());
        for (i, rec) in batch.iter().enumerate() {
            let back = get(&log, rec.lsn).unwrap().header().unwrap();
            if i == 0 {
                // The batch head chains to the transaction's head and keeps
                // its caller-provided page linkage…
                assert_eq!(back.prev_lsn, head);
                assert_eq!(back.prev_page_lsn, Lsn(42));
            } else {
                // …and the rest chain through the batch, both the
                // per-transaction and the per-page chain.
                assert_eq!(back.prev_lsn, batch[i - 1].lsn);
                assert_eq!(back.prev_page_lsn, batch[i - 1].lsn);
            }
        }
        assert_eq!((chain.first_lsn(), chain.last_lsn()), (head, batch[4].lsn));
        // Another transaction's records start their own chain; its `End`
        // closes it and leaves the first chain open.
        let other = TxnChain::default();
        let end = log
            .append_batch(&other, &mut [rec(8, LogPayloadView::End)])
            .start;
        let back = get(&log, end).unwrap().header().unwrap();
        assert_eq!(back.prev_lsn, Lsn::NULL);
        assert!(other.is_closed() && !chain.is_closed());
    }

    #[test]
    fn append_stamped_clamps_a_backward_clock() {
        let log = LogManager::new(LogConfig::default());
        let (c1, c2) = (TxnChain::default(), TxnChain::default());
        let mut r1 = rec(
            1,
            LogPayloadView::Commit {
                at: Timestamp::ZERO,
            },
        );
        log.append_stamped(Some(&c1), &mut r1, &|| Timestamp::from_secs(10));
        // A clock reading behind the last stamp is clamped forward, so
        // stamps stay monotone in LSN order.
        let mut r2 = rec(
            2,
            LogPayloadView::Commit {
                at: Timestamp::ZERO,
            },
        );
        let range2 = log.append_stamped(Some(&c2), &mut r2, &|| Timestamp::from_secs(5));
        assert_eq!(range2.end, log.tail_lsn());
        assert!(
            c1.is_closed() && c2.is_closed(),
            "a commit closes its chain"
        );
        match get(&log, range2.start).unwrap().view().unwrap().1 {
            LogPayloadView::Commit { at } => assert_eq!(at, Timestamp::from_secs(10)),
            other => panic!("unexpected {other:?}"),
        }
        match r2.payload {
            LogPayloadView::Commit { at } => assert_eq!(at, Timestamp::from_secs(10)),
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn record_ref_survives_truncation() {
        let log = LogManager::new(LogConfig::default());
        let mut lsns = Vec::new();
        for i in 0..600 {
            lsns.push(log.append(&insert_rec(i, 5000)));
        }
        log.flush_to(log.tail_lsn());
        // Hold a zero-copy ref into early history, then truncate past it.
        let held = log.get_record_ref(lsns[10]).unwrap();
        let expect = held.body().to_vec();
        log.truncate_before(lsns[400]);
        assert!(log.truncation_point() > lsns[10]);
        // New reads fail; the held snapshot still decodes the same record.
        assert!(matches!(get(&log, lsns[10]), Err(Error::LogTruncated(_))));
        assert_eq!(held.body(), &expect[..]);
        assert_eq!(held.view().unwrap().0.lsn, lsns[10]);
    }

    /// No reader keeps an index past its read: once the last `RecordRef`
    /// into a segment drops and truncation retires the segment, its bytes
    /// are freed, with no further read on the thread.
    #[test]
    fn a_truncated_segment_is_freed_when_its_last_reader_drops() {
        let log = LogManager::new(LogConfig::default());
        let mut lsns = Vec::new();
        for i in 0..600 {
            lsns.push(log.append(&insert_rec(i, 5000)));
        }
        log.flush_to(log.tail_lsn());
        let first_end = log.load_sealed().segs[0].end();
        assert!(lsns[10].0 < first_end, "read in the first sealed segment");
        let held = log.get_record_ref(lsns[10]).unwrap();
        let bytes = Arc::downgrade(&held.data);
        drop(held);
        assert!(log.truncate_before(lsns[400]).0 >= first_end);
        assert!(bytes.upgrade().is_none(), "the truncated segment is pinned");
    }

    fn end_checkpoint(log: &LogManager, at_secs: u64) -> Lsn {
        let b = log.append(&rec(
            0,
            LogPayloadView::CheckpointBegin {
                at: Timestamp::from_secs(at_secs),
            },
        ));
        log.append(&rec(
            0,
            LogPayloadView::CheckpointEnd {
                at: Timestamp::from_secs(at_secs),
                begin_lsn: b,
                tables: EMPTY_TABLES,
            },
        ))
    }

    #[test]
    fn crc_framing_detects_bit_flip() {
        let log = LogManager::new(LogConfig::default());
        let a = log.append(&insert_rec(1, 64));
        let b = log.append(&insert_rec(1, 64));
        log.flush_to(log.tail_lsn());
        assert!(get(&log, b).is_ok());
        // Flip one bit in b's body; the frame CRC must catch it.
        assert!(log.corrupt_byte_at(b.0 + FRAME_HEADER as u64 + 3, 0x10));
        let err = get(&log, b).err().expect("the flipped frame is rejected");
        assert_eq!(err.corruption_kind(), Some(CorruptionKind::LogBlock));
        assert!(err.to_string().contains("crc"), "{err}");
        assert!(log.io_stats().snapshot().corruptions_detected >= 1);
        // Undamaged records stay readable.
        assert!(get(&log, a).is_ok());
        // Out-of-range and no-op corruption requests are rejected.
        assert!(!log.corrupt_byte_at(log.tail_lsn().0 + 100, 0x10));
        assert!(!log.corrupt_byte_at(a.0, 0));
    }

    #[test]
    fn cut_at_damage_cuts_at_the_damaged_frame() {
        let log = LogManager::new(LogConfig::default());
        let mut lsns = Vec::new();
        for i in 0..20 {
            lsns.push(log.append(&insert_rec(i, 200)));
        }
        log.flush_to(log.tail_lsn());
        // Damage record 12's body: the durable prefix is records 0..12.
        assert!(log.corrupt_byte_at(lsns[12].0 + FRAME_HEADER as u64 + 1, 0x80));
        let err = get(&log, lsns[12]).err().expect("the damaged frame fails");
        let tail = log.tail_lsn();
        // An intact frame, an error that names no frame, and a frame
        // outside the log are not damage: no cut.
        let intact = Error::log_corruption(lsns[11], "not damage");
        assert!(!log.cut_at_damage(&intact), "a frame that parses");
        assert!(!log.cut_at_damage(&Error::log_corruption(Lsn(0), "decode")));
        assert!(!log.cut_at_damage(&Error::LogTruncated(lsns[12])));
        assert_eq!(log.tail_lsn(), tail, "no cut yet");
        assert!(log.cut_at_damage(&err));
        assert_eq!(log.tail_lsn(), lsns[12]);
        assert_eq!(log.flushed_lsn(), lsns[12], "durable horizon pulled back");
        for &l in &lsns[..12] {
            assert!(get(&log, l).is_ok(), "clean prefix must survive");
        }
        let mut seen = 0;
        log.scan_refs(lsns[0], Lsn::MAX, |_| {
            seen += 1;
            Ok(true)
        })
        .unwrap();
        assert_eq!(seen, 12, "scan sees exactly the clean prefix");
        // The log remains appendable after the cut.
        let next = log.append(&insert_rec(99, 10));
        assert_eq!(next, lsns[12]);
        log.flush_to(log.tail_lsn());
        assert!(get(&log, next).is_ok());
        // The same error names a clean frame now: no second cut.
        assert!(!log.cut_at_damage(&err));
    }

    #[test]
    fn cut_at_damage_cuts_inside_sealed_segment() {
        let log = LogManager::new(LogConfig::default());
        let mut lsns = Vec::new();
        // Large records force several sealed segments.
        for i in 0..600 {
            lsns.push(log.append(&insert_rec(i, 5000)));
        }
        log.flush_to(log.tail_lsn());
        assert!(log.load_sealed().segs.len() > 1, "need sealed history");
        assert!(
            lsns[50].0 < log.load_sealed().sealed_end,
            "target is sealed"
        );
        // Live readers holding the old index keep the clean bytes.
        let held = log.get_record_ref(lsns[50]).unwrap();
        assert!(log.corrupt_byte_at(lsns[50].0 + FRAME_HEADER as u64, 0x01));
        let err = get(&log, lsns[50]).err().expect("the damaged frame fails");
        assert!(log.cut_at_damage(&err));
        assert_eq!(log.tail_lsn(), lsns[50]);
        assert!(get(&log, lsns[49]).is_ok());
        assert!(held.view().is_ok(), "sealed bytes are never mutated");
    }

    #[test]
    fn flush_retries_transient_faults_and_counts_them() {
        let log = LogManager::new(LogConfig::default());
        let a = log.append(&insert_rec(1, 100));
        log.set_flush_faults(3);
        log.flush_to(a);
        assert_eq!(log.flushed_lsn(), log.tail_lsn(), "flush must succeed");
        assert_eq!(log.io_stats().snapshot().io_retries, 3);
    }

    #[test]
    fn followers_never_wake_before_durability_across_retries() {
        // Regression for the leader/follower coalescer: a leader whose
        // physical flush fails transiently and succeeds on retry must keep
        // followers parked for the whole retry sequence — a follower that
        // returns from flush_to must always observe its bytes durable.
        let log = Arc::new(LogManager::new(LogConfig {
            flush_delay_us: 50,
            ..LogConfig::default()
        }));
        for round in 0..20u64 {
            let target = log.append(&insert_rec(round, 512));
            log.set_flush_faults(4);
            let followers: Vec<_> = (0..4)
                .map(|_| {
                    let log = log.clone();
                    std::thread::spawn(move || {
                        log.flush_to(target);
                        let flushed = log.flushed_lsn();
                        assert!(
                            flushed > target,
                            "follower woke before durability: flushed {flushed} <= target {target}"
                        );
                    })
                })
                .collect();
            log.flush_to(target);
            assert!(log.flushed_lsn() > target);
            for f in followers {
                f.join().unwrap();
            }
        }
        assert!(log.io_stats().snapshot().io_retries > 0, "faults consumed");
    }

    /// A log of `n` 3 000-byte inserts, a commit stamp after every fourth
    /// and a checkpoint after inserts 420, 450 and 480: several sealed
    /// segments and an active tail. Nothing flushed.
    fn long_log(n: u64, archive_on_truncate: bool) -> (LogManager, Vec<Lsn>) {
        let log = LogManager::new(LogConfig {
            archive_on_truncate,
            ..LogConfig::default()
        });
        let mut lsns = Vec::new();
        for i in 0..n {
            lsns.push(log.append(&insert_rec(i, 3000)));
            if i % 4 == 3 {
                let at = Timestamp::from_secs(i);
                log.append(&rec(i, LogPayloadView::Commit { at }));
            }
            if [420, 450, 480].contains(&i) {
                end_checkpoint(&log, i);
            }
        }
        assert!(log.load_sealed().segs.len() >= 2, "need sealed history");
        assert!(!log.inner.lock().active.is_empty(), "need an active tail");
        (log, lsns)
    }

    /// The four ways a frame goes bad, each reached the way media reaches
    /// it: a tail torn inside the header or inside the body, a length prefix
    /// gone wild, a flipped body bit.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Damage {
        TornHeader,
        TornBody,
        HugeLen,
        CrcFlip,
    }

    /// One fault table through the one parser from all four callers —
    /// random read, scan, `flush_target`, and restart's scan followed by
    /// the damage cut — in a sealed segment and in the active tail. Every
    /// fault is the typed `LogBlock` error; what it *counts* as is pinned
    /// per caller: a reader counts a CRC mismatch and nothing else,
    /// `flush_target` counts one only over sealed bytes, and a scan that
    /// meets the frame followed by the cut counts one in total. A damaged
    /// frame that truncation moved into the archive still reads as damage,
    /// but the cut refuses it: it is outside the retained log.
    #[test]
    fn frame_faults_read_the_same_through_every_caller() {
        use Damage::*;
        for sealed in [true, false] {
            for damage in [TornHeader, TornBody, HugeLen, CrcFlip] {
                let case = format!("{damage:?}, sealed = {sealed}");
                let (log, lsns) = long_log(900, false);
                let victim = if sealed {
                    lsns[40]
                } else {
                    lsns[lsns.len() - 2]
                };
                assert_eq!(victim.0 < log.load_sealed().sealed_end, sealed, "{case}");
                let body = victim.0 + FRAME_HEADER as u64;
                match damage {
                    // A crash that got part of the frame to the device.
                    TornHeader | TornBody => {
                        let keep = if damage == TornHeader { 4 } else { 18 };
                        log.flush_up_to(Lsn(victim.0 + keep));
                        log.discard_unflushed();
                        assert_eq!(log.tail_lsn(), Lsn(victim.0 + keep), "{case}");
                    }
                    // Every bit of the length prefix flipped: a length a
                    // few thousand short of `u32::MAX`.
                    HugeLen => {
                        log.flush_to(log.tail_lsn());
                        for i in 0..4 {
                            assert!(log.corrupt_byte_at(victim.0 + i, 0xFF));
                        }
                    }
                    CrcFlip => {
                        log.flush_to(log.tail_lsn());
                        assert!(log.corrupt_byte_at(body + 5, 0x04));
                    }
                }
                let tail = log.tail_lsn();
                let crc = u64::from(damage == CrcFlip);
                let detected = || log.io_stats().snapshot().corruptions_detected;
                let assert_log_block = |err: Error| {
                    assert_eq!(
                        err.corruption_kind(),
                        Some(CorruptionKind::LogBlock),
                        "{case}: {err}"
                    );
                };

                let d0 = detected();
                assert_log_block(log.get_record_ref(victim).err().expect(&case));
                assert_log_block(log.get_record_deep(victim).err().expect(&case));
                assert_eq!(detected() - d0, 2 * crc, "{case}: random reads");

                let d0 = detected();
                let mut seen = 0;
                let scan = log.scan_refs(lsns[38], Lsn::MAX, |_| {
                    seen += 1;
                    Ok(true)
                });
                assert_log_block(scan.expect_err(&case));
                assert!(seen > 0, "{case}: the clean prefix is scanned");
                assert_eq!(detected() - d0, crc, "{case}: scan");

                let d0 = detected();
                assert_eq!(
                    log.flush_target(victim),
                    Some(tail.0),
                    "{case}: a frame that does not parse flushes the whole tail"
                );
                assert_eq!(
                    detected() - d0,
                    crc * u64::from(sealed),
                    "{case}: flush_target"
                );

                let d0 = detected();
                let restart = || log.scan_refs(lsns[38], Lsn::MAX, |_| Ok(true));
                let err = restart().expect_err(&case);
                assert!(log.cut_at_damage(&err), "{case}");
                assert_eq!(detected() - d0, 1, "{case}: scan, then cut: one in total");
                assert_eq!(log.tail_lsn(), victim, "{case}");
                assert_eq!(log.flushed_lsn(), victim, "{case}");
                assert_eq!(restart().expect(&case), victim, "{case}: clean again");
                assert!(!log.cut_at_damage(&err), "{case}: nothing left to cut");
                assert_eq!(detected() - d0, 1, "{case}");
            }
        }

        let (log, lsns) = long_log(900, true);
        log.flush_to(log.tail_lsn());
        let victim = lsns[40];
        assert!(log.corrupt_byte_at(victim.0 + FRAME_HEADER as u64 + 5, 0x04));
        let err = get(&log, victim).err().expect("the damaged frame fails");
        assert!(log.truncate_before(lsns[400]) > victim);
        assert!(log.earliest_available_lsn() <= victim, "archived");
        let deep = log.get_record_deep(victim).err().expect("still damaged");
        assert_eq!(deep.corruption_kind(), Some(CorruptionKind::LogBlock));
        let tail = log.tail_lsn();
        assert!(!log.cut_at_damage(&err), "an archived frame is not cut");
        assert_eq!((log.tail_lsn(), log.flushed_lsn()), (tail, tail));
    }

    /// The crash cut and the damage cut are one `cut_at`. The same log cut
    /// at the same byte by `discard_unflushed` and by `cut_at_damage`
    /// — inside a sealed segment, and inside the active tail — ends in the
    /// same state, the three checkpoints before the cut included, and a
    /// reader holding a `RecordRef` past the cut still decodes it.
    #[test]
    fn crash_cut_and_damage_cut_leave_the_same_log() {
        type SegBytes = Vec<(u64, Vec<u8>)>;
        #[derive(Debug, PartialEq)]
        struct State {
            segs: SegBytes,
            trunc: u64,
            sealed_end: u64,
            active_start: u64,
            active: Vec<u8>,
            tail: Lsn,
            flushed: Lsn,
            checkpoints: Vec<CheckpointInfo>,
            earliest: Option<Timestamp>,
            flush_requested: u64,
        }
        let state = |log: &LogManager| {
            let index = log.load_sealed();
            let inner = log.inner.lock();
            State {
                segs: index
                    .segs
                    .iter()
                    .map(|s| (s.start, s.data.to_vec()))
                    .collect(),
                trunc: index.trunc,
                sealed_end: index.sealed_end,
                active_start: inner.active_start,
                active: inner.active.clone(),
                tail: log.tail_lsn(),
                flushed: log.flushed_lsn(),
                checkpoints: inner.checkpoints.to_vec(),
                earliest: {
                    drop(inner);
                    log.earliest_retained_time()
                },
                flush_requested: log.flush_queue.lock().requested,
            }
        };

        for at in [500usize, 897] {
            let build = || {
                let (log, lsns) = long_log(900, false);
                log.flush_up_to(lsns[at]);
                assert!(log.truncate_before(lsns[400]) > Lsn::FIRST);
                let held = log.get_record_ref(lsns[at + 1]).unwrap();
                (log, lsns, held)
            };
            let (crashed, lsns, held_crashed) = build();
            let cut = lsns[at];
            assert_eq!(
                cut.0 < crashed.load_sealed().sealed_end,
                at == 500,
                "one cut in sealed history, one in the active tail"
            );
            crashed.discard_unflushed();

            let (damaged, _, held_damaged) = build();
            damaged.flush_to(damaged.tail_lsn());
            assert!(damaged.corrupt_byte_at(cut.0 + FRAME_HEADER as u64 + 1, 0x20));
            let err = get(&damaged, cut).err().expect("the damaged frame fails");
            assert!(damaged.cut_at_damage(&err));

            let (a, b) = (state(&crashed), state(&damaged));
            assert_eq!(a, b, "cut at record {at}");
            assert_eq!((a.tail, a.flushed), (cut, cut));
            assert_eq!(a.checkpoints.len(), 3, "cut at record {at}");
            assert!(a.earliest.is_some());
            for (log, held) in [(&crashed, &held_crashed), (&damaged, &held_damaged)] {
                assert!(
                    log.get_record_ref(held.lsn()).is_err(),
                    "gone for new reads"
                );
                assert_eq!(held.view().unwrap().0.lsn, lsns[at + 1], "kept for old");
                assert_eq!(log.append(&insert_rec(7, 10)), cut, "appendable at the cut");
            }
        }
    }

    /// The checkpoint directory is a function of the retained log: after
    /// any seeded sequence of appends, checkpoints, flushes, crash cuts,
    /// damage cuts and truncations it equals a from-scratch scan of the
    /// `CheckpointEnd` records the log still holds — the archive included,
    /// when archiving. Forks at frame boundaries along the way are held to
    /// the same rule, and share the sealed bytes without sharing appends.
    #[test]
    fn checkpoint_directory_equals_a_scan_of_the_log() {
        fn scanned(log: &LogManager) -> Vec<CheckpointInfo> {
            let from = log.earliest_available_lsn();
            let mut dir = Vec::new();
            log.scan_refs(from, Lsn::MAX, |r| {
                if let (h, LogPayloadView::CheckpointEnd { at, begin_lsn, .. }) = r.view()? {
                    if begin_lsn >= from {
                        dir.push(CheckpointInfo {
                            end_lsn: h.lsn,
                            begin_lsn,
                            at,
                        });
                    }
                }
                Ok(true)
            })
            .unwrap();
            dir
        }

        // Every held segment, archived ones included, and the active tail:
        // its summary, and the same two maxima folded from a scan of its
        // LSN range.
        fn summaries(log: &LogManager) -> Vec<(u64, SegmentSummary, SegmentSummary)> {
            let inner = log.inner.lock();
            let index = log.published.lock().clone();
            let active = SealedSeg {
                start: inner.active_start,
                data: Arc::from(&inner.active[..]),
                summary: inner.active_summary,
            };
            drop(inner);
            let segs = index.segs.iter().chain([&active]);
            segs.map(|seg| {
                let mut scanned = SegmentSummary::default();
                log.scan_refs(Lsn(seg.start), Lsn(seg.end()), |r| {
                    let (h, view) = r.view()?;
                    scanned.max_txn = scanned.max_txn.max(h.txn);
                    if let Some(at) = view.time_stamp() {
                        scanned.max_stamp = scanned.max_stamp.max(at);
                    }
                    Ok(true)
                })
                .unwrap();
                (seg.start, seg.summary, scanned)
            })
            .collect()
        }

        // A fork at `cut`, with `first` a record the live log holds: the
        // fork's directory and summaries equal a scan of the fork, its
        // sealed segments are the live log's allocations (the one the cut
        // falls inside excepted), an append to the fork stays there and is
        // stamped no earlier than what the fork holds, and a `RecordRef`
        // taken before the fork still decodes.
        fn check_fork(log: &LogManager, cut: Lsn, first: Lsn, case: &str) -> LogManager {
            let taken = log.get_record_deep(first).unwrap();
            let fork = log.fork(cut);
            assert_eq!((fork.tail_lsn(), fork.flushed_lsn()), (cut, cut), "{case}");
            assert_eq!(*fork.checkpoints(), scanned(&fork), "{case}");
            for (start, kept, scanned) in summaries(&fork) {
                assert_eq!(kept, scanned, "fork segment at {start}: {case}");
            }
            let (live, forked) = (log.load_sealed(), fork.load_sealed());
            for (i, seg) in forked.segs.iter().enumerate() {
                let same = live.segs.iter().find(|s| s.start == seg.start).unwrap();
                if seg.end() == same.end() {
                    assert!(Arc::ptr_eq(&seg.data, &same.data), "{case}");
                } else {
                    assert_eq!((i + 1, seg.end()), (forked.segs.len(), cut.0), "{case}");
                }
            }
            let live_tail = log.tail_lsn();
            assert_eq!(fork.append(&insert_rec(2, 10)), cut, "{case}");
            assert_eq!(log.tail_lsn(), live_tail, "{case}");
            // A backward clock is clamped to the newest stamp the fork
            // holds, not to the live log's.
            let held = summaries(&fork).iter().map(|(_, s, _)| s.max_stamp).max();
            let mut commit = rec(
                3,
                LogPayloadView::Commit {
                    at: Timestamp::ZERO,
                },
            );
            let at = fork
                .append_stamped(None, &mut commit, &|| Timestamp::ZERO)
                .start;
            let stamp = fork
                .get_record_deep(at)
                .unwrap()
                .view()
                .unwrap()
                .1
                .time_stamp();
            assert_eq!(stamp, held, "{case}");
            assert_eq!(taken.header().unwrap().lsn, first, "{case}");
            if first < cut {
                let again = fork.get_record_deep(first).unwrap();
                assert_eq!(again.body(), taken.body(), "{case}");
            }
            fork
        }

        for archive_on_truncate in [false, true] {
            for seed in [0x9E37_79B9_u64, 0x85EB_CA6B] {
                let log = LogManager::new(LogConfig {
                    archive_on_truncate,
                    ..LogConfig::default()
                });
                let mut state = seed;
                let mut next = |n: u64| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state % n
                };
                // Every record start still in the log, for flush and
                // truncation targets that land on frame boundaries.
                let mut lsns = vec![log.append(&insert_rec(0, 10))];
                let (mut secs, mut cuts, mut truncations) = (0, 0, 0);
                let mut forks = Vec::new();
                for step in 0..300 {
                    match next(32) {
                        0..=13 => {
                            for _ in 0..=next(8) {
                                lsns.push(log.append(&insert_rec(step, 4000)));
                            }
                            continue;
                        }
                        14..=18 => {
                            secs += 1;
                            let at = Timestamp::from_secs(secs);
                            lsns.push(end_checkpoint(&log, secs));
                            lsns.push(log.append(&rec(step, LogPayloadView::Commit { at })));
                        }
                        19..=22 => log.flush_to(log.tail_lsn()),
                        23..=24 => log.flush_to(lsns[next(lsns.len() as u64) as usize]),
                        25 => {
                            log.discard_unflushed();
                            cuts += 1;
                        }
                        26 => {
                            // Damage one of the newest records.
                            let back = next(lsns.len().min(16) as u64) as usize;
                            let victim = lsns[lsns.len() - 1 - back];
                            if log.corrupt_byte_at(victim.0 + FRAME_HEADER as u64 + 1, 0x10) {
                                let err = get(&log, victim).err().expect("damaged");
                                assert!(log.cut_at_damage(&err));
                                assert_eq!(log.tail_lsn(), victim);
                                cuts += 1;
                            }
                        }
                        _ => {
                            let at = lsns[next(lsns.len() as u64) as usize];
                            if log.truncate_before(at) > Lsn::FIRST {
                                truncations += 1;
                            }
                        }
                    }
                    let tail = log.tail_lsn();
                    lsns.retain(|l| *l < tail);
                    if lsns.is_empty() {
                        lsns.push(log.append(&insert_rec(step, 10)));
                    }
                    assert_eq!(
                        *log.checkpoints(),
                        scanned(&log),
                        "archive {archive_on_truncate}, seed {seed:#x}, step {step}"
                    );
                    for (start, kept, scanned) in summaries(&log) {
                        assert_eq!(
                            kept, scanned,
                            "segment at {start}: archive {archive_on_truncate}, \
                             seed {seed:#x}, step {step}"
                        );
                    }
                    if step % 10 == 9 {
                        // Picked without drawing from `next`, so the live
                        // log sees the same seeded steps as without forks.
                        let floor = log.earliest_available_lsn();
                        let held: Vec<Lsn> = lsns.iter().copied().filter(|l| *l >= floor).collect();
                        let cut = held[(step as usize * 7919) % held.len()];
                        let case =
                            format!("archive {archive_on_truncate}, seed {seed:#x}, step {step}");
                        let fork = check_fork(&log, cut, held[0], &case);
                        forks.push((fork.tail_lsn(), fork.checkpoints(), fork, case));
                    }
                }
                // Everything the live log did after each fork left it as
                // it was.
                for (tail, dir, fork, case) in &forks {
                    assert_eq!(fork.tail_lsn(), *tail, "{case}");
                    assert_eq!(
                        (fork.checkpoints(), scanned(fork)),
                        (dir.clone(), dir.to_vec()),
                        "{case}"
                    );
                    assert_eq!(
                        fork.scan_refs(*tail, Lsn::MAX, |_| Ok(true)).unwrap(),
                        *tail
                    );
                }
                assert!(forks.len() >= 8, "seed {seed:#x}: {} forks", forks.len());
                assert!(log.checkpoints().len() >= 2, "seed {seed:#x}");
                assert!(cuts > 0 && truncations > 0, "seed {seed:#x}");
            }
        }
    }
}
