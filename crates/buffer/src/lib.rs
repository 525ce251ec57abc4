//! The buffer manager.
//!
//! Pages are fetched into fixed frames, latched shared or exclusive for the
//! duration of an access (paper §2.1: "the buffer manager latches the page
//! in shared or exclusive mode based on the intended access"), and written
//! back under the WAL rule: before a dirty page goes to disk, the log is
//! forced up to its `pageLSN`.
//!
//! The pool also supports the recovery-side needs of the engine: the dirty
//! page table for fuzzy checkpoints, `flush_all` for snapshot creation
//! ("perform a checkpoint to make sure that all pages with LSNs less than or
//! equal to SplitLSN are durable", §5.1), and `drop_cache` to simulate a
//! crash (volatile state vanishes, file + log survive).
//!
//! # The page table and the frame claim protocol
//!
//! The page table is one `RwLock<HashMap<pid, frame>>`. A resident-page hit
//! needs it only in **shared** mode: look the frame up, pin it with an
//! atomic increment, set the clock-reference bit, release. Concurrent hits
//! therefore proceed in parallel, and an as-of reader never blocks behind a
//! live writer's exclusive *frame* latch on another page, because the
//! table lock is dropped before the frame latch is taken.
//!
//! Frames are global, as is the clock hand, so the hit/IO/eviction
//! classification of any serial access sequence is bit-identical to a
//! single-`Mutex<HashMap>` single-clock pool (the Figs. 5–11 "must not
//! drift" invariant; enforced by the trace-replay property test in
//! `tests/prop_pool.rs`).
//!
//! A miss claims a victim frame by CAS-ing its pin count from `0` to the
//! [`EVICT_CLAIM`] sentinel. A claimed frame cannot be pinned: a racing
//! fast-path reader that observes a pin count at or above the sentinel
//! backs out and retries. The claimant then (1) flushes the victim if dirty
//! (WAL rule first), (2) unmaps the victim's old pid under the table's
//! write lock, (3) waits for transient back-off pins to drain, (4) re-probes
//! the table and, if no racer published the pid, loads the new page while
//! holding the frame latch exclusively, and (5) under the table's write
//! lock either publishes the mapping and converts the claim into the
//! caller's pin, or — if a racer published the pid first — releases the
//! frame and pins the racer's. The table lock is never held together with
//! a frame latch or across I/O, so there is no lock-order cycle.
//!
//! `drop_cache` (crash simulation) is the one operation that invalidates
//! frames *without* owning their pins, so `with_page`/`with_page_mut`
//! revalidate the frame's pid after latching and retry (removing any stale
//! mapping) on mismatch. Pin counts are never reset: an in-flight accessor
//! always unpins the frame it pinned.
//!
//! # Read guards
//!
//! [`BufferPool::read_page`] returns a [`PageReadGuard`]: a pinned,
//! shared-latched, revalidated view of one page that dereferences to
//! [`Page`] and releases latch + pin on drop. `with_page` is sugar over it.
//! The §5.3 step (b) primary read of an as-of preparation borrows the frame
//! through such a guard, so the one 8 KiB copy a cold as-of miss pays is
//! the copy *into* the prepared image; the snapshot side then serves that
//! immutable image (`rewind_pagestore::PageImage`) and never holds a pool
//! latch.
//!
//! # Scan partitions (scan-resistant bulk reads)
//!
//! A cold stream larger than the pool (every multi-row as-of read, ROADMAP
//! item (h)) would march the clock over every frame and evict the live
//! working set. [`BufferPool::scan_partition`] creates a pin-limited
//! partition — and is the one place a partition's size is decided: 0 means
//! an eighth of the pool, floored at two frames, capped at half the pool.
//! Misses taken through [`BufferPool::read_page_staged_in`] reuse the
//! partition's **own** frames ring-style once its bounded budget is
//! reached, so a scan of any length dirties at most `budget` frames of the
//! shared pool. Partition loads publish their frames with the reference
//! bit clear, making them the clock's preferred victims if the live side
//! needs memory — the scan yields, never the working set. *Hits* are
//! untouched: a scan read of a resident page pins it exactly like any other
//! reader, and the default (non-partitioned) path is byte-for-byte the same
//! algorithm as before — the serial hit/IO/eviction oracle in
//! `tests/prop_pool.rs` proves its accounting stays bit-exact.
//!
//! # Media hardening: salvage and bounded retry
//!
//! A miss read that fails page verification (checksum mismatch or torn
//! write) does not kill the access: the pool rebuilds the page from its
//! per-page log chain ([`salvage::salvage_page`]), writes the repaired
//! image back (repair-on-read), and serves it — counted in
//! [`rewind_common::IoStats`] as a page salvage. Transient I/O errors
//! (`Error::is_transient`) on the miss-read and dirty write-back paths get
//! a bounded exponential-backoff retry before surfacing, each attempt
//! counted as an I/O retry.
//!
//! # Write-back
//!
//! Pages reach the media three ways: an evictor writes its dirty victim
//! under the frame latch, [`BufferPool::flush_all`],
//! [`BufferPool::flush_older_than`] and [`BufferPool::flush_page`] share one
//! flush routine, and salvage writes a repaired image back. The flush
//! routine writes only a **pinned** page's clone: the pin keeps the frame
//! from being evicted while the clone is in flight, so no evictor can write
//! a newer image that the clone then overwrites. The flush gate stays for
//! the same reason across flushes: two overlapping flushes could each clone
//! a page and land the older clone last. Every landed write bumps the
//! page's write sequence, which is how a miss learns that its image (staged
//! or read scalar) may be older than the media's: it publishes the image
//! only if the sequence has not moved since the read began. No flush thread
//! outlives its call: the one helper writer is a scoped thread, joined
//! before the routine returns.
//!
//! Invariants enforced by tests (`tests/buffer_torture.rs`,
//! `tests/prop_pool.rs` in the workspace root and `crates/buffer/tests/`):
//!
//! * **No lost pins** — after all accessors finish, every frame's pin count
//!   is zero ([`BufferPool::pinned_frames`]).
//! * **No torn access** — a `with_page*` closure only ever sees the frame
//!   latched and holding exactly the requested page.
//! * **recLSN ≤ pageLSN** while dirty, and recLSN is pinned to the *first*
//!   dirtying record since the page was last clean.
//! * **Serial-trace accounting** — hits, IOs (reads and write-backs) and
//!   evictions for a serial trace equal the single-clock oracle.

pub mod salvage;

use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use rewind_common::{CorruptionKind, Error, Lsn, PageId, Result, StripedCounters};
use rewind_obs::{EventKind, Obs};
use rewind_pagestore::{FileManager, Page};
use rewind_wal::{DptEntry, LogManager};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Pin-count sentinel marking a frame claimed for eviction/reload. Real pin
/// counts stay far below this; a fast-path reader whose increment lands on a
/// claimed frame sees `prev >= EVICT_CLAIM`, backs out and retries.
const EVICT_CLAIM: u32 = 1 << 30;

/// The smallest pool: a scan partition's two-frame floor must fit in half
/// of it. `Database` rejects a smaller `buffer_pages` with
/// `Error::InvalidArg` before it builds a pool.
pub const MIN_FRAMES: usize = 4;

/// Retry budget for transient I/O failures on the miss-read and write-back
/// paths. Mirrors the log-flush retry bound: enough attempts for a device
/// hiccup, small enough that a dead device fails in well under a second.
const MAX_IO_RETRIES: u32 = 8;

/// Raw tag value of a frame that holds no page.
const TAG_FREE: u64 = u64::MAX;

struct FrameState {
    pid: PageId,
    page: Page,
    dirty: bool,
    /// Earliest LSN whose effect may not be on disk (ARIES recLSN).
    rec_lsn: Lsn,
    /// Modifications since the last full-page-image record (paper §6.1
    /// cadence counter; volatile by design — a restart merely delays the
    /// next FPI).
    mods_since_fpi: u32,
}

struct Frame {
    state: RwLock<FrameState>,
    pins: AtomicU32,
    used: AtomicBool,
    /// Mirror of `state.pid` readable without the frame latch: eviction
    /// uses it to find the victim's mapping, a scan partition to check that
    /// a ring frame is still its own, and the stale-entry sweep to
    /// recognize mappings orphaned by `drop_cache`.
    /// Updated only while the frame is claimed (or by `drop_cache`, which
    /// holds the frame latch).
    tag: AtomicU64,
}

/// A mutable view of a latched frame, handed to `with_page_mut` closures.
pub struct FrameView<'a> {
    state: &'a mut FrameState,
}

impl FrameView<'_> {
    /// The page, immutably.
    pub fn page(&self) -> &Page {
        &self.state.page
    }

    /// The page, mutably. Callers must log before modifying (WAL).
    pub fn page_mut(&mut self) -> &mut Page {
        &mut self.state.page
    }

    /// Mark the frame dirty; `lsn` is the record that dirtied it (recLSN is
    /// kept at the *first* such record since the page was last clean).
    pub fn mark_dirty(&mut self, lsn: Lsn) {
        if !self.state.dirty {
            self.state.dirty = true;
            self.state.rec_lsn = lsn;
        }
    }

    /// Bump and read the FPI cadence counter.
    pub fn bump_fpi_counter(&mut self) -> u32 {
        self.state.mods_since_fpi += 1;
        self.state.mods_since_fpi
    }

    /// Reset the FPI cadence counter (after an FPI was logged).
    pub fn reset_fpi_counter(&mut self) {
        self.state.mods_since_fpi = 0;
    }
}

// Pool counter indices into the striped array. The counters are a
// `rewind_common::StripedCounters` — the same cache-padded, thread-striped,
// exact-on-sum discipline as `IoStats`, extracted into the shared helper so
// the idiom is written once (ROADMAP item (i)).
const PS_HITS: usize = 0;
const PS_MISSES: usize = 1;
const PS_EVICTIONS: usize = 2;
const PS_MAP_CONTENDED: usize = 3;
const POOL_COUNTERS: usize = 4;

/// Pool access counters (all monotonically increasing), striped per thread.
type PoolStats = StripedCounters<POOL_COUNTERS>;

/// A point-in-time copy of the pool's access counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStatsView {
    /// Accesses served from a resident frame.
    pub hits: u64,
    /// Accesses that read the page from the file (one random page read
    /// each — the IO term of the paper's figures).
    pub misses: u64,
    /// Victim frames that held a valid page when reclaimed.
    pub evictions: u64,
    /// Page-table lock acquisitions that could not be granted immediately
    /// (contention probe; `e2ebench` reports it as `buffer.map_contended`).
    pub map_contended: u64,
}

impl PoolStatsView {
    /// Counter-wise `self - earlier` (saturating).
    pub fn delta(self, earlier: PoolStatsView) -> PoolStatsView {
        PoolStatsView {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            map_contended: self.map_contended.saturating_sub(earlier.map_contended),
        }
    }
}

/// A pin-limited partition of the pool for cold bulk streams (bulk as-of
/// preparation, large scans). Created by [`BufferPool::scan_partition`];
/// passed to [`BufferPool::read_page_staged_in`].
///
/// The partition tracks the frames *it* loaded in a bounded ring. Until the
/// ring reaches its budget, misses claim victims from the global clock like
/// any other access (the partition's total claim on the shared pool); once
/// at budget, the oldest ring frame is reused for the next cold page, so a
/// stream of any length occupies at most `budget` frames. Ring entries lost
/// to recycling (the global clock taking a scan frame back for live
/// traffic, or `drop_cache`) or to transient pins are simply dropped — the
/// partition never evicts a frame it cannot prove is still its own.
///
/// The damage bound assumes ring reuse can usually succeed: a miss whose
/// ring entries are *all* transiently pinned falls back to the global
/// clock. Other readers of the same pages (live traffic, another snapshot)
/// pin ring frames transiently, so a partition holds at least two frames
/// ([`BufferPool::scan_partition`] enforces that floor).
///
/// One partition belongs to one operation on one thread: its ring is a
/// `RefCell`, so the type is not `Sync` and cannot be shared across
/// threads.
///
/// ```compile_fail
/// fn shared<T: Sync>() {}
/// shared::<rewind_buffer::ScanPartition>();
/// ```
pub struct ScanPartition {
    budget: usize,
    /// (frame index, pid loaded into it) in load order, oldest first.
    ring: RefCell<VecDeque<(usize, u64)>>,
}

impl ScanPartition {
    /// The bounded frame budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    fn record_load(&self, idx: usize, pid: u64) {
        let mut ring = self.ring.borrow_mut();
        ring.push_back((idx, pid));
        // Over-budget entries (possible when claims fell back to the global
        // clock) are forgotten, not evicted: their frames stay resident with
        // the reference bit clear, first in line for the global clock.
        while ring.len() > self.budget {
            ring.pop_front();
        }
    }
}

/// A pinned, shared-latched, revalidated read view of one pool page.
/// Dereferences to [`Page`]; releases the latch and the pin on drop.
///
/// Holding a guard keeps the frame's content stable (writers need the
/// exclusive latch) and the frame unreclaimable (the pin). Guards must not
/// be held across a re-entrant access of the same page — frame latches are
/// not re-entrant — and should not be held across I/O the caller performs.
pub struct PageReadGuard<'a> {
    pool: &'a BufferPool,
    idx: usize,
    guard: Option<RwLockReadGuard<'a, FrameState>>,
}

impl std::ops::Deref for PageReadGuard<'_> {
    type Target = Page;

    #[inline]
    fn deref(&self) -> &Page {
        // tidy: allow(no-panic) -- Option is Some from construction until Drop takes it
        &self.guard.as_ref().expect("guard live until drop").page
    }
}

impl Drop for PageReadGuard<'_> {
    fn drop(&mut self) {
        // Latch first, then pin — the frame must still be unreclaimable
        // while the latch is being released.
        drop(self.guard.take());
        self.pool.unpin(self.idx);
    }
}

/// One page's slot of a vectored read staged by
/// [`BufferPool::stage_read_run`]: the read's result, and the page's write
/// sequence as it stood before the read. A miss consumes the result only
/// while that sequence is unchanged.
pub struct StagedRead {
    seq: u32,
    read: Result<Page>,
}

/// Slots of the pool's write-sequence array. A page owns slot
/// `pid % WRITE_SEQ_SLOTS`; pages that share a slot can only cost a
/// discarded staged image (one more device read), never a stale one.
const WRITE_SEQ_SLOTS: usize = 1 << 14;

/// The buffer pool. Thread-safe; shared via `Arc`.
pub struct BufferPool {
    frames: Vec<Frame>,
    /// The page table: pid → frame index.
    map: RwLock<HashMap<u64, usize>>,
    hand: AtomicUsize,
    stats: PoolStats,
    fm: Arc<dyn FileManager>,
    log: Arc<LogManager>,
    /// The engine's observability handle, shared from the log manager.
    obs: Arc<Obs>,
    /// Pages per vectored read and per write-back chunk (`>= 1`).
    io_batch_pages: usize,
    /// Serializes the flush routine, so two overlapping flushes cannot land
    /// an older clone of a page after a newer one.
    flush_gate: Mutex<()>,
    /// Per-slot count of the page writes the pool has landed (eviction,
    /// flush chunk, salvage write-back); see [`StagedRead`].
    write_seqs: Box<[AtomicU32]>,
}

impl BufferPool {
    /// A pool of `capacity` frames over `fm`, flushing through `log` (WAL
    /// rule), with scalar I/O.
    pub fn new(fm: Arc<dyn FileManager>, log: Arc<LogManager>, capacity: usize) -> Self {
        Self::with_io(fm, log, capacity, 1)
    }

    /// A pool that reads and writes back up to `io_batch_pages` pages per
    /// device call. Per-page hit/miss/eviction/write accounting of any
    /// serial trace is bit-identical at every batch size; only device-op
    /// counts change. `capacity` must be at least [`MIN_FRAMES`].
    pub fn with_io(
        fm: Arc<dyn FileManager>,
        log: Arc<LogManager>,
        capacity: usize,
        io_batch_pages: usize,
    ) -> Self {
        debug_assert!(capacity >= MIN_FRAMES, "pool smaller than MIN_FRAMES");
        let frames = (0..capacity)
            .map(|_| Frame {
                state: RwLock::new(FrameState {
                    pid: PageId::INVALID,
                    page: Page::zeroed(),
                    dirty: false,
                    rec_lsn: Lsn::NULL,
                    mods_since_fpi: 0,
                }),
                pins: AtomicU32::new(0),
                used: AtomicBool::new(false),
                tag: AtomicU64::new(TAG_FREE),
            })
            .collect();
        BufferPool {
            frames,
            map: RwLock::new(HashMap::new()),
            hand: AtomicUsize::new(0),
            stats: PoolStats::default(),
            fm,
            obs: log.obs().clone(),
            log,
            io_batch_pages: io_batch_pages.max(1),
            flush_gate: Mutex::new(()),
            write_seqs: (0..WRITE_SEQ_SLOTS).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    /// Number of frames.
    pub fn capacity(&self) -> usize {
        self.frames.len()
    }

    /// The underlying media.
    pub fn file_manager(&self) -> &Arc<dyn FileManager> {
        &self.fm
    }

    /// The configured read/write-back batch size (`>= 1`).
    pub fn io_batch_pages(&self) -> usize {
        self.io_batch_pages
    }

    /// The write-sequence slot of `pid`.
    fn write_seq(&self, pid: PageId) -> &AtomicU32 {
        &self.write_seqs[(pid.0 % WRITE_SEQ_SLOTS as u64) as usize]
    }

    /// Record that the pool has just written `pid` to the media: a staged
    /// image of it taken before this point is no longer safe to install.
    /// The bump follows the write; a staged read samples the sequence
    /// (`Acquire`) before it reads, so a read that saw the old sequence
    /// began before this bump and may predate the write.
    fn wrote(&self, pid: PageId) {
        self.write_seq(pid).fetch_add(1, Ordering::AcqRel);
    }

    /// Access counters (hits, misses, evictions, page-table contention).
    pub fn stats(&self) -> PoolStatsView {
        let s = self.stats.sums();
        PoolStatsView {
            hits: s[PS_HITS],
            misses: s[PS_MISSES],
            evictions: s[PS_EVICTIONS],
            map_contended: s[PS_MAP_CONTENDED],
        }
    }

    /// Frames currently pinned (diagnostics: must be 0 when no access is in
    /// flight — the "no lost pins" invariant the torture test checks).
    pub fn pinned_frames(&self) -> usize {
        self.frames
            .iter()
            .filter(|f| f.pins.load(Ordering::Acquire) != 0)
            .count()
    }

    /// Shared page-table acquisition with a contention probe.
    #[inline]
    fn read_map(&self) -> RwLockReadGuard<'_, HashMap<u64, usize>> {
        match self.map.try_read() {
            Some(g) => g,
            None => {
                self.stats.incr(PS_MAP_CONTENDED);
                self.map.read()
            }
        }
    }

    /// Continue a bounded transient-retry loop from an already-obtained
    /// `first` attempt: while the result is transient
    /// ([`Error::is_transient`]) and attempts remain, count an I/O retry,
    /// back off exponentially, and re-run `op`. Corruption and structural
    /// errors are never retried — re-reading bad bytes returns the same bad
    /// bytes. Seeding the loop with an external first attempt is what lets
    /// a page's slot of a *vectored* batch resume the retry protocol with
    /// accounting bit-identical to a fully scalar access.
    fn retry_from<T>(&self, first: Result<T>, mut op: impl FnMut() -> Result<T>) -> Result<T> {
        let mut attempt = 0u32;
        let mut res = first;
        loop {
            match res {
                Err(e) if e.is_transient() && attempt < MAX_IO_RETRIES => {
                    attempt += 1;
                    self.fm.io_stats().add_io_retry();
                    std::thread::sleep(std::time::Duration::from_micros(10u64 << attempt.min(6)));
                    res = op();
                }
                other => return other,
            }
        }
    }

    /// Run `op`, retrying transient I/O failures up to [`MAX_IO_RETRIES`]
    /// times (see [`BufferPool::retry_from`]).
    fn with_io_retry<T>(&self, mut op: impl FnMut() -> Result<T>) -> Result<T> {
        let first = op();
        self.retry_from(first, &mut op)
    }

    /// The hardening protocol, resumed from an already-obtained first read
    /// attempt — either a scalar `read_page` or this page's slot of a
    /// vectored `read_pages` batch. Transient failures retry (scalar, the
    /// page is alone at fault), then checksum/torn failures salvage from the
    /// per-page log chain with a repair-on-read write-back. Every counter
    /// (`page_reads`, `io_retries`, `page_salvages`) moves exactly as it
    /// would on the fully scalar path. The flag says whether a repair write
    /// landed (and so bumped the page's write sequence).
    fn hardened_from(&self, pid: PageId, first: Result<Page>) -> Result<(Page, bool)> {
        match self.retry_from(first, || self.fm.read_page(pid)) {
            Ok(page) => Ok((page, false)),
            Err(cause)
                if matches!(
                    cause.corruption_kind(),
                    Some(CorruptionKind::PageChecksum | CorruptionKind::TornPage)
                ) =>
            {
                let page = salvage::salvage_page(&self.log, pid, &cause)?;
                // Repair on read: overwrite the damaged on-media image so
                // the next miss does not pay the salvage again. The chain
                // only reaches flushed records, so the WAL rule holds by
                // construction; the flush_to is a cheap no-op guard.
                self.log.flush_to(page.page_lsn());
                let written = self.with_io_retry(|| self.fm.write_page(pid, &page));
                self.wrote(pid);
                written?;
                self.fm.io_stats().add_page_salvage();
                self.obs
                    .record(EventKind::PageSalvage, page.page_lsn().0, pid.0, 0);
                Ok((page, true))
            }
            Err(e) => Err(e),
        }
    }

    /// The one way a page gets pinned: every public access function ends
    /// here. Pin the frame holding `pid`, loading (and possibly evicting) as
    /// needed — optionally routing the *miss* path through a
    /// [`ScanPartition`] and/or consuming a *staged* first read
    /// attempt — this page's slot of an earlier vectored batch
    /// ([`BufferPool::stage_read_run`]). A miss consumes the staged result
    /// in place of its device read; hit/miss classification, victim choice
    /// and eviction order are untouched, because staging replaces only the
    /// *read* inside the miss protocol, never the protocol itself. The
    /// staged result is consumed at most once; claim-race retries fall back
    /// to scalar reads.
    fn pin_page(
        &self,
        pid: PageId,
        scan: Option<&ScanPartition>,
        mut staged: Option<StagedRead>,
    ) -> Result<usize> {
        if !pid.is_valid() {
            return Err(Error::InvalidPage(pid));
        }
        loop {
            // Optimistic fast path: table lock shared, pin via atomics.
            {
                let map = self.read_map();
                if let Some(&idx) = map.get(&pid.0) {
                    let f = &self.frames[idx];
                    let prev = f.pins.fetch_add(1, Ordering::AcqRel);
                    if prev >= EVICT_CLAIM {
                        // Claimed for eviction between our lookup and pin:
                        // back out; the claimant drains exactly these
                        // transient pins before reusing the frame.
                        f.pins.fetch_sub(1, Ordering::AcqRel);
                        drop(map);
                        std::thread::yield_now();
                        continue;
                    }
                    f.used.store(true, Ordering::Relaxed);
                    self.stats.incr(PS_HITS);
                    return Ok(idx);
                }
            }
            if let Some(idx) = self.load_miss_in(pid, scan, staged.take())? {
                return Ok(idx);
            }
            // Lost a race; retry from the fast path.
        }
    }

    /// Claim a victim frame: on return its pin count is `EVICT_CLAIM`, its
    /// old mapping (if any) is gone, and no other thread can see it.
    ///
    /// Concurrency note: unlike the seed pool, the sweep does not run under
    /// a global lock, so a probe bound of `2n+1` is no longer exact —
    /// concurrent hits re-set used bits and transient back-out pins defeat
    /// individual probes without the pool being full. "Exhausted" is
    /// reported after several *complete* sweeps in which every frame was
    /// pinned; sweeps that saw an unpinned frame but lost it to churn go
    /// around again with escalating backoff, but only up to a fixed total
    /// round budget — otherwise long-lived latch holders plus fast-path pin
    /// flicker (a back-out pin transiently reading 0) could keep resetting
    /// progress and livelock the claimant forever.
    fn claim_victim(&self) -> Result<usize> {
        let n = self.frames.len();
        const MAX_ROUNDS: usize = 256;
        let mut fully_pinned_sweeps = 0;
        let mut rounds = 0;
        while fully_pinned_sweeps < 3 && rounds < MAX_ROUNDS {
            rounds += 1;
            let mut saw_unpinned = false;
            // Up to two full sweeps per round: the first clears used bits,
            // the second takes any unpinned frame (the serial bound).
            for _ in 0..2 * n + 1 {
                let i = self.hand.fetch_add(1, Ordering::Relaxed) % n;
                let f = &self.frames[i];
                if f.pins.load(Ordering::Acquire) != 0 {
                    continue;
                }
                saw_unpinned = true;
                if f.used.swap(false, Ordering::Relaxed) {
                    continue;
                }
                if f.pins
                    .compare_exchange(0, EVICT_CLAIM, Ordering::AcqRel, Ordering::Relaxed)
                    .is_err()
                {
                    continue;
                }
                self.evict_claimed(i)?;
                return Ok(i);
            }
            if saw_unpinned {
                // Lost every candidate to concurrent traffic; go again,
                // backing off harder as rounds accumulate so competing
                // claimants and latch holders can drain.
                if rounds > 16 {
                    std::thread::sleep(std::time::Duration::from_micros((rounds as u64).min(500)));
                } else {
                    std::thread::yield_now();
                }
            } else {
                fully_pinned_sweeps += 1;
            }
        }
        Err(Error::Internal(
            "buffer pool exhausted: no evictable frame (all pinned or lost to churn)".into(),
        ))
    }

    /// Finish evicting a frame the caller has just claimed (its pin count
    /// is `EVICT_CLAIM`): write back a dirty victim *before* unmapping it
    /// (WAL rule first; a flush failure leaves the page reachable and
    /// consistent, with the claim released), drop its old mapping, and
    /// drain fast-path readers that pinned before the unmapping.
    fn evict_claimed(&self, idx: usize) -> Result<()> {
        let f = &self.frames[idx];
        let tag = f.tag.load(Ordering::Acquire);
        if tag == TAG_FREE {
            return Ok(());
        }
        {
            let mut st = f.state.write();
            if st.dirty {
                // tidy: allow(lock-across-io) -- frame latch must cover WAL-first flush of the victim
                self.log.flush_to(st.page.page_lsn());
                // tidy: allow(lock-across-io) -- write-back under the frame latch; pool-level locks are not held
                let written = self.with_io_retry(|| self.fm.write_page(st.pid, &st.page));
                self.wrote(st.pid);
                if let Err(e) = written {
                    drop(st);
                    // The victim is still mapped, so transient fast-path
                    // pins may be in flight: release the claim
                    // arithmetically, never by store.
                    f.pins.fetch_sub(EVICT_CLAIM, Ordering::AcqRel);
                    return Err(e);
                }
                st.dirty = false;
                st.rec_lsn = Lsn::NULL;
            }
        }
        {
            let mut map = self.map.write();
            if map.get(&tag) == Some(&idx) {
                map.remove(&tag);
            }
        }
        // Drain fast-path readers that pinned before the unmapping.
        while f.pins.load(Ordering::Acquire) != EVICT_CLAIM {
            std::thread::yield_now();
        }
        self.stats.incr(PS_EVICTIONS);
        self.obs.record(EventKind::BufferEvict, 0, tag, 0);
        Ok(())
    }

    /// Release a claimed frame back to the free state.
    ///
    /// The claim is dropped with `fetch_sub`, not a store: a stale mapping
    /// orphaned by `drop_cache` can still point at this frame, so a
    /// fast-path reader may have a transient `fetch_add`/`fetch_sub`
    /// back-out pair in flight — a store between the two would wrap the
    /// pin count.
    fn release_claim(&self, idx: usize) {
        let f = &self.frames[idx];
        {
            let mut st = f.state.write();
            st.pid = PageId::INVALID;
            st.dirty = false;
            st.rec_lsn = Lsn::NULL;
            st.mods_since_fpi = 0;
            f.tag.store(TAG_FREE, Ordering::Release);
        }
        f.pins.fetch_sub(EVICT_CLAIM, Ordering::AcqRel);
    }

    /// Claim a victim frame from `part`'s own ring instead of the global
    /// clock. `None` means the caller takes a global victim: the ring is
    /// below budget, or every entry was stale or transiently pinned.
    fn claim_from_ring(&self, part: &ScanPartition) -> Result<Option<usize>> {
        let mut ring = part.ring.borrow_mut();
        if ring.len() < part.budget {
            return Ok(None);
        }
        for _ in 0..ring.len() {
            let Some((idx, old_pid)) = ring.pop_front() else {
                break; // rotation never grows the ring past its scan length
            };
            let f = &self.frames[idx];
            if f.tag.load(Ordering::Acquire) != old_pid {
                // The global clock (or drop_cache) recycled this frame for
                // other traffic since the scan loaded it; the entry is
                // dead. Do NOT victimize whatever lives there now — that
                // would be exactly the working-set damage the partition
                // exists to prevent.
                continue;
            }
            if f.pins
                .compare_exchange(0, EVICT_CLAIM, Ordering::AcqRel, Ordering::Relaxed)
                .is_err()
            {
                // Transiently pinned (another reader that found the page
                // useful): rotate to the back, try the next-oldest.
                ring.push_back((idx, old_pid));
                continue;
            }
            // Re-verify ownership now that the claim blocks recycling: the
            // global clock may have evicted our page and a live reload may
            // have landed between the tag check and the CAS. Backing out
            // drops only the claim (arithmetic — transient back-out pins
            // may be in flight), leaving the live page untouched; the
            // entry is dead either way. Only `drop_cache` can change the
            // tag from here on, and `evict_claimed` copes with that.
            if f.tag.load(Ordering::Acquire) != old_pid {
                f.pins.fetch_sub(EVICT_CLAIM, Ordering::AcqRel);
                continue;
            }
            drop(ring);
            self.evict_claimed(idx)?;
            return Ok(Some(idx));
        }
        // Every entry was stale or transiently pinned: a global claim keeps
        // the scan live. With the two-frame floor `scan_partition`
        // enforces, an all-pinned ring is not a sustained state, so
        // fallbacks stay rare.
        Ok(None)
    }

    /// Miss path: claim a victim, load `pid` into it, publish the mapping.
    /// Returns `None` when a racer published `pid` between our fast-path
    /// miss and the publish step *and* we could not adopt its frame.
    ///
    /// With a [`ScanPartition`], the victim comes from the partition's own
    /// ring once it is at budget, and the loaded frame is published with
    /// the reference bit **clear** — cold scan pages are the global clock's
    /// preferred victims, never its protected residents.
    ///
    /// The image is published only if the page's write sequence is where it
    /// was before the image was read (plus the fill's own repair write). A
    /// racer that loads, changes and evicts the page while the read is in
    /// flight has unmapped it by the time of the publish, so the table
    /// cannot show the race; its eviction write moved the sequence, and the
    /// older image is discarded instead of published.
    fn load_miss_in(
        &self,
        pid: PageId,
        scan: Option<&ScanPartition>,
        staged: Option<StagedRead>,
    ) -> Result<Option<usize>> {
        let reused = match scan {
            Some(part) => self.claim_from_ring(part)?,
            None => None,
        };
        let idx = match reused {
            Some(i) => i,
            None => self.claim_victim()?,
        };
        // A racer may have published `pid` while we were claiming (and
        // possibly writing back) the victim: re-probe before paying the
        // read I/O, handing the claimed frame back free on a hit.
        {
            let map = self.read_map();
            if map.contains_key(&pid.0) {
                drop(map);
                self.release_claim(idx);
                return Ok(None);
            }
        }
        let f = &self.frames[idx];
        let fill_started = self.obs.now_us();
        let expected_seq;
        {
            // Exclusive by construction: the frame is claimed and unmapped,
            // so only crash simulation can race this latch.
            let mut st = f.state.write();
            let read_seq = self.write_seq(pid).load(Ordering::Acquire);
            let first = match staged {
                // The staged slot of a vectored batch replaces the device
                // read; hardening (retry, salvage) resumes from it exactly
                // as if `fm.read_page` had just returned it. A page the
                // pool wrote since it was staged may be newer on the media
                // than the staged image, so that image is discarded.
                Some(s) if s.seq == read_seq => s.read,
                // tidy: allow(lock-across-io) -- miss fill reads under the claimed frame's latch; no pool-level locks are held
                _ => self.fm.read_page(pid),
            };
            match self.hardened_from(pid, first) {
                Ok((page, repaired)) => {
                    st.page = page;
                    expected_seq = read_seq.wrapping_add(u32::from(repaired));
                }
                Err(e) => {
                    drop(st);
                    self.release_claim(idx);
                    return Err(e);
                }
            }
            st.pid = pid;
            st.dirty = false;
            st.rec_lsn = Lsn::NULL;
            st.mods_since_fpi = 0;
            f.tag.store(pid.0, Ordering::Release);
        }
        self.stats.incr(PS_MISSES);
        self.obs.record(
            EventKind::BufferMiss,
            0,
            pid.0,
            self.obs.now_us().saturating_sub(fill_started),
        );
        let mut map = self.map.write();
        if let Some(&other) = map.get(&pid.0) {
            // A racer loaded the page first. Try to adopt its frame — but
            // it may itself already be claimed for eviction (the claim CAS
            // happens before the evictor reaches the table lock), and
            // our own image may predate a write-back of that frame, so on
            // a claimed racer we discard everything and retry from the
            // fast path instead.
            let of = &self.frames[other];
            let prev = of.pins.fetch_add(1, Ordering::AcqRel);
            if prev >= EVICT_CLAIM {
                of.pins.fetch_sub(1, Ordering::AcqRel);
                drop(map);
                self.release_claim(idx);
                std::thread::yield_now();
                return Ok(None);
            }
            of.used.store(true, Ordering::Relaxed);
            drop(map);
            self.release_claim(idx);
            return Ok(Some(other));
        }
        if self.write_seq(pid).load(Ordering::Acquire) != expected_seq {
            // Written since our read began: the media may hold a newer
            // image than ours. Discard it and retry from the fast path.
            drop(map);
            self.release_claim(idx);
            return Ok(None);
        }
        // Publish: convert the claim into the caller's pin *before* the
        // mapping becomes visible. Arithmetic, not a store: a stale
        // drop_cache-orphaned mapping may still aim transient back-out
        // pins at this frame. Partition loads leave the reference bit
        // clear — a use-once scan page must not earn clock protection just
        // by arriving.
        f.pins.fetch_sub(EVICT_CLAIM - 1, Ordering::AcqRel);
        f.used.store(scan.is_none(), Ordering::Relaxed);
        map.insert(pid.0, idx);
        drop(map);
        if let Some(part) = scan {
            part.record_load(idx, pid.0);
        }
        Ok(Some(idx))
    }

    fn unpin(&self, idx: usize) {
        self.frames[idx].pins.fetch_sub(1, Ordering::AcqRel);
    }

    /// Drop a mapping that points at a frame no longer holding `pid`
    /// (orphaned by `drop_cache`), so retries make progress.
    fn forget_stale(&self, pid: PageId, idx: usize) {
        let mut map = self.map.write();
        if map.get(&pid.0) == Some(&idx) && self.frames[idx].tag.load(Ordering::Acquire) != pid.0 {
            map.remove(&pid.0);
        }
    }

    /// Create a pin-limited [`ScanPartition`] — the one budget rule.
    /// `budget` 0 means an eighth of the pool. The size is then floored at
    /// two frames: with one, another reader's transient pin could keep the
    /// only ring entry pinned, each miss would fall back to the global
    /// clock, and the bound would be void. Last, it is capped at half the
    /// pool (at least the floor: a pool has four frames or more), so a
    /// partition never monopolizes the pool it is supposed to protect.
    pub fn scan_partition(&self, budget: usize) -> ScanPartition {
        let cap = self.frames.len();
        let budget = if budget == 0 { cap / 8 } else { budget };
        ScanPartition {
            budget: budget.max(2).min(cap / 2),
            ring: RefCell::new(VecDeque::new()),
        }
    }

    /// Acquire a shared, revalidated read guard on page `pid`. The guard
    /// dereferences to [`Page`] and releases latch + pin on drop.
    pub fn read_page(&self, pid: PageId) -> Result<PageReadGuard<'_>> {
        self.read_page_staged_in(pid, None, None)
    }

    /// [`BufferPool::read_page`] with the two optional arguments of a bulk
    /// stream. `scan` routes cold misses through a [`ScanPartition`]
    /// (bounded frame budget, ring reuse); `staged` is a first read attempt
    /// from [`BufferPool::stage_read_run`], which a cold miss consumes
    /// instead of issuing its own device read — unless the pool has written
    /// `pid` since it was staged, in which case the miss reads scalar. Hits, and
    /// everything else about a miss — classification, victim choice,
    /// eviction accounting, retry/salvage hardening — are bit-identical to
    /// the default path.
    pub fn read_page_staged_in(
        &self,
        pid: PageId,
        scan: Option<&ScanPartition>,
        staged: Option<StagedRead>,
    ) -> Result<PageReadGuard<'_>> {
        let mut staged = staged;
        loop {
            let idx = self.pin_page(pid, scan, staged.take())?;
            let st = self.frames[idx].state.read();
            if st.pid == pid {
                return Ok(PageReadGuard {
                    pool: self,
                    idx,
                    guard: Some(st),
                });
            }
            // Invalidated under our pin (crash simulation): clean up, retry.
            drop(st);
            self.unpin(idx);
            self.forget_stale(pid, idx);
        }
    }

    /// Vector-read the non-resident pages of `pids` through the backend's
    /// [`FileManager::read_pages`], in chunks of at most
    /// [`BufferPool::io_batch_pages`] pages, and return the staged per-page
    /// results for consumption by [`BufferPool::read_page_staged_in`].
    ///
    /// Resident pages are skipped (a scalar trace would not have read them
    /// — it would have *hit*), so for a serial trace every staged read
    /// corresponds to exactly one subsequent miss and per-page accounting
    /// stays bit-identical to the scalar backend; contiguous ids inside a
    /// chunk coalesce into single device ops. With batch size 1 (or an
    /// empty filter result) this degenerates to exactly the scalar path.
    ///
    /// Each slot carries its page's write sequence sampled before the read:
    /// if a live writer loads, changes and evicts a staged page before its
    /// miss, the write bumps the sequence and the miss discards the staged
    /// image instead of installing an image older than the media's.
    pub fn stage_read_run(&self, pids: &[PageId]) -> Vec<(PageId, StagedRead)> {
        let batch = self.io_batch_pages();
        if batch <= 1 {
            // Scalar configuration: nothing to stage; callers fall through
            // to plain per-page reads.
            return Vec::new();
        }
        let wanted: Vec<PageId> = pids
            .iter()
            .copied()
            .filter(|&pid| pid.is_valid() && !self.contains(pid))
            .collect();
        let mut out = Vec::with_capacity(wanted.len());
        for chunk in wanted.chunks(batch) {
            let seqs: Vec<u32> = chunk
                .iter()
                .map(|&pid| self.write_seq(pid).load(Ordering::Acquire))
                .collect();
            let results = self.fm.read_pages(chunk);
            out.extend(
                chunk
                    .iter()
                    .zip(seqs)
                    .zip(results)
                    .map(|((&pid, seq), read)| (pid, StagedRead { seq, read })),
            );
        }
        out
    }

    /// Run `f` with a shared latch on page `pid` (sugar over
    /// [`BufferPool::read_page`]).
    pub fn with_page<R>(&self, pid: PageId, f: impl FnOnce(&Page) -> Result<R>) -> Result<R> {
        let guard = self.read_page(pid)?;
        f(&guard)
    }

    /// Run `f` with an exclusive latch on page `pid`.
    pub fn with_page_mut<R>(
        &self,
        pid: PageId,
        f: impl FnOnce(&mut FrameView<'_>) -> Result<R>,
    ) -> Result<R> {
        loop {
            let idx = self.pin_page(pid, None, None)?;
            let frame = &self.frames[idx];
            let mut st = frame.state.write();
            if st.pid == pid {
                let res = f(&mut FrameView { state: &mut st });
                debug_assert!(
                    !st.dirty || st.rec_lsn <= st.page.page_lsn(),
                    "recLSN must never pass pageLSN"
                );
                drop(st);
                self.unpin(idx);
                return res;
            }
            drop(st);
            self.unpin(idx);
            self.forget_stale(pid, idx);
        }
    }

    /// Whether `pid` is currently resident.
    pub fn contains(&self, pid: PageId) -> bool {
        self.read_map().contains_key(&pid.0)
    }

    /// Flush one page if resident and dirty: the flush routine with one
    /// candidate.
    pub fn flush_page(&self, pid: PageId) -> Result<()> {
        self.flush_matching(Lsn::MAX, Some(pid))
    }

    /// Flush every dirty page (blocking on in-flight latches). After this,
    /// every logged change up to the flush point is durable in the file —
    /// the property as-of snapshot creation needs (§5.1).
    pub fn flush_all(&self) -> Result<()> {
        self.flush_matching(Lsn::MAX, None)
    }

    /// Flush dirty pages whose recLSN is older than `before` (blocking on
    /// in-flight latches). The incremental half of fuzzy checkpointing:
    /// after this, every page first dirtied before `before` is durable, so
    /// the dirty-page table a subsequent checkpoint captures has
    /// `recLSN >= before` — which is what bounds the crash-redo window to
    /// the checkpoint cadence instead of the whole log.
    pub fn flush_older_than(&self, before: Lsn) -> Result<()> {
        self.flush_matching(before, None)
    }

    /// The flush routine: write back every dirty page with
    /// `recLSN < before` (`Lsn::MAX` = all), or only `only` when given.
    ///
    /// Under the flush gate it collects the candidates, sorts them by pid
    /// so adjacent pages share a device op, forces the log once to the
    /// highest pageLSN seen (WAL rule), and splits the list into chunks of
    /// [`BufferPool::io_batch_pages`]. The calling thread and, when there is
    /// more than one chunk, one scoped helper take chunks from a shared
    /// counter ([`BufferPool::write_chunk`]); the helper is joined before
    /// the call returns. A failed chunk stops both writers; its failed
    /// pages, and those of chunks not taken, stay dirty.
    fn flush_matching(&self, before: Lsn, only: Option<PageId>) -> Result<()> {
        let _gate = self.flush_gate.lock();
        let mut todo: Vec<(PageId, usize)> = Vec::new();
        let mut high = Lsn::NULL;
        let mut collect = |idx: usize| {
            let st = self.frames[idx].state.read();
            if st.pid.is_valid()
                && st.dirty
                && st.rec_lsn < before
                && only.is_none_or(|pid| pid == st.pid)
            {
                high = high.max(st.page.page_lsn());
                todo.push((st.pid, idx));
            }
        };
        match only {
            Some(pid) => {
                let idx = self.read_map().get(&pid.0).copied();
                idx.into_iter().for_each(&mut collect);
            }
            None => (0..self.frames.len()).for_each(&mut collect),
        }
        if todo.is_empty() {
            return Ok(());
        }
        todo.sort_unstable_by_key(|&(pid, _)| pid);
        // tidy: allow(lock-across-io) -- the flush gate orders write-backs and guards no data; the WAL rule needs the log forced before any chunk is written
        self.log.flush_to(high);
        // Each writer pins one chunk at a time: two chunks of at most a
        // quarter of the pool leave at least half the frames unpinned.
        let size = self.io_batch_pages.min(self.frames.len() / 4).max(1);
        let chunks: Vec<&[(PageId, usize)]> = todo.chunks(size).collect();
        let next = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        let writer = || -> Result<()> {
            while !failed.load(Ordering::Acquire) {
                let Some(chunk) = chunks.get(next.fetch_add(1, Ordering::Relaxed)) else {
                    break;
                };
                if let Err(e) = self.write_chunk(chunk) {
                    failed.store(true, Ordering::Release);
                    return Err(e);
                }
            }
            Ok(())
        };
        std::thread::scope(|s| {
            // No helper when there is one chunk, or when the OS refuses a
            // thread: the caller then writes every chunk itself.
            let helper = if chunks.len() > 1 {
                std::thread::Builder::new().spawn_scoped(s, writer).ok()
            } else {
                None
            };
            let mine = writer();
            let theirs = match helper {
                Some(h) => h
                    .join()
                    .unwrap_or_else(|_| Err(Error::Internal("flush writer panicked".into()))),
                None => Ok(()),
            };
            mine.and(theirs)
        })
    }

    /// Write back one chunk of the flush routine's candidates. Each page is
    /// pinned for the whole chunk, so it cannot be evicted — and written
    /// newer by its evictor — before its clone lands; a frame already
    /// claimed for eviction is skipped, because its evictor writes it under
    /// the latch. The page is cloned under the shared latch, the log is
    /// forced to the chunk's highest clone LSN (a no-op unless a page
    /// changed after the collect pass), and the clones go out as one
    /// `write_pages` batch, each failed slot resuming the scalar retry
    /// protocol. The dirty bit clears only where the pageLSN still equals
    /// the clone's: a page changed since keeps it, and the next flush owes
    /// the device the newer image.
    fn write_chunk(&self, chunk: &[(PageId, usize)]) -> Result<()> {
        let mut batch: Vec<(PageId, Page)> = Vec::with_capacity(chunk.len());
        let mut pinned: Vec<usize> = Vec::with_capacity(chunk.len());
        let mut high = Lsn::NULL;
        for &(pid, idx) in chunk {
            let f = &self.frames[idx];
            if f.pins.fetch_add(1, Ordering::AcqRel) >= EVICT_CLAIM {
                f.pins.fetch_sub(1, Ordering::AcqRel);
                continue;
            }
            let clone = {
                let st = f.state.read();
                (st.pid == pid && st.dirty).then(|| st.page.clone())
            };
            match clone {
                Some(page) => {
                    high = high.max(page.page_lsn());
                    batch.push((pid, page));
                    pinned.push(idx);
                }
                None => self.unpin(idx),
            }
        }
        if batch.is_empty() {
            return Ok(());
        }
        self.log.flush_to(high);
        let results = self.fm.write_pages(&batch);
        let mut first_err = None;
        for (((pid, page), idx), first) in batch.iter().zip(pinned).zip(results) {
            let written = self.retry_from(first, || self.fm.write_page(*pid, page));
            self.wrote(*pid);
            match written {
                Ok(()) => {
                    let mut st = self.frames[idx].state.write();
                    if st.pid == *pid && st.dirty && st.page.page_lsn() == page.page_lsn() {
                        st.dirty = false;
                        st.rec_lsn = Lsn::NULL;
                    }
                }
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
            self.unpin(idx);
        }
        first_err.map_or(Ok(()), Err)
    }

    /// The ARIES dirty-page table: (page, recLSN) for every dirty frame.
    pub fn dirty_page_table(&self) -> Vec<DptEntry> {
        let mut dpt = Vec::new();
        for frame in &self.frames {
            let st = frame.state.read();
            if st.pid.is_valid() && st.dirty {
                dpt.push(DptEntry {
                    page: st.pid,
                    rec_lsn: st.rec_lsn,
                });
            }
        }
        dpt.sort_by_key(|e| e.page);
        dpt
    }

    /// Throw away all cached state *without* flushing — simulates a crash:
    /// buffer contents are volatile; the file and the flushed log survive.
    ///
    /// Pin counts are deliberately left alone (they belong to in-flight
    /// accessors, which revalidate and retry); any mapping published by a
    /// racing load is either cleared here or swept lazily by the stale-entry
    /// path.
    pub fn drop_cache(&self) {
        self.map.write().clear();
        for frame in &self.frames {
            let mut st = frame.state.write();
            st.pid = PageId::INVALID;
            st.page = Page::zeroed();
            st.dirty = false;
            st.rec_lsn = Lsn::NULL;
            st.mods_since_fpi = 0;
            frame.tag.store(TAG_FREE, Ordering::Release);
            frame.used.store(false, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rewind_common::{ObjectId, TxnId};
    use rewind_pagestore::{FileManager, MemFileManager, PageType};
    use rewind_wal::{LogConfig, LogPayloadView, LogRecord};

    fn setup(cap: usize) -> (Arc<MemFileManager>, Arc<LogManager>, BufferPool) {
        let fm = Arc::new(MemFileManager::new());
        let log = Arc::new(LogManager::new(LogConfig::default()));
        let pool = BufferPool::new(fm.clone(), log.clone(), cap);
        (fm, log, pool)
    }

    fn format_on(pool: &BufferPool, pid: PageId, lsn: Lsn) {
        pool.with_page_mut(pid, |v| {
            v.page_mut().format(pid, ObjectId(1), PageType::Heap);
            v.page_mut().set_page_lsn(lsn);
            v.mark_dirty(lsn);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn read_through_and_write_back() {
        let (fm, _log, pool) = setup(8);
        format_on(&pool, PageId(3), Lsn(10));
        pool.with_page(PageId(3), |p| {
            assert_eq!(p.page_type(), PageType::Heap);
            Ok(())
        })
        .unwrap();
        // not yet on disk
        assert_eq!(fm.read_page(PageId(3)).unwrap().page_type(), PageType::Free);
        pool.flush_all().unwrap();
        assert_eq!(fm.read_page(PageId(3)).unwrap().page_type(), PageType::Heap);
    }

    #[test]
    fn wal_rule_forces_log_before_page_write() {
        let (_fm, log, pool) = setup(8);
        // Append a record but do not flush the log.
        let lsn = log.append(&LogRecord {
            lsn: Lsn::NULL,
            txn: TxnId(1),
            prev_lsn: Lsn::NULL,
            page: PageId(3),
            prev_page_lsn: Lsn::NULL,
            object: ObjectId(1),
            undo_next: Lsn::NULL,
            flags: 0,
            payload: LogPayloadView::InsertRecord {
                slot: 0,
                bytes: &[1],
            },
        });
        assert!(log.flushed_lsn() <= lsn);
        format_on(&pool, PageId(3), lsn);
        pool.flush_page(PageId(3)).unwrap();
        assert!(
            log.flushed_lsn() > lsn,
            "log must be forced up to pageLSN before page write"
        );
    }

    #[test]
    fn eviction_respects_capacity_and_persists_dirty_pages() {
        let (fm, _log, pool) = setup(4);
        for i in 1..=20u64 {
            format_on(&pool, PageId(i), Lsn(i));
        }
        // every page readable back with its content (dirty evictions flushed)
        for i in 1..=20u64 {
            pool.with_page(PageId(i), |p| {
                assert_eq!(p.page_id(), PageId(i));
                assert_eq!(p.page_type(), PageType::Heap);
                Ok(())
            })
            .unwrap();
        }
        assert!(fm.page_count() >= 20);
        assert!(pool.stats().evictions > 0);
    }

    #[test]
    fn dirty_page_table_tracks_first_dirtier() {
        let (_fm, _log, pool) = setup(8);
        format_on(&pool, PageId(2), Lsn(5));
        // second modification must not advance recLSN
        pool.with_page_mut(PageId(2), |v| {
            v.page_mut().set_page_lsn(Lsn(9));
            v.mark_dirty(Lsn(9));
            Ok(())
        })
        .unwrap();
        let dpt = pool.dirty_page_table();
        assert_eq!(dpt.len(), 1);
        assert_eq!(dpt[0].page, PageId(2));
        assert_eq!(dpt[0].rec_lsn, Lsn(5));
        pool.flush_all().unwrap();
        assert!(pool.dirty_page_table().is_empty());
    }

    #[test]
    fn drop_cache_loses_unflushed_state() {
        let (fm, _log, pool) = setup(8);
        format_on(&pool, PageId(7), Lsn(3));
        pool.drop_cache();
        assert!(!pool.contains(PageId(7)));
        // the file never saw the page
        assert_eq!(fm.read_page(PageId(7)).unwrap().page_type(), PageType::Free);
        // and a fresh read loads the (empty) disk version
        pool.with_page(PageId(7), |p| {
            assert_eq!(p.page_type(), PageType::Free);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn fpi_counter_is_per_frame() {
        let (_fm, _log, pool) = setup(8);
        format_on(&pool, PageId(1), Lsn(1));
        pool.with_page_mut(PageId(1), |v| {
            assert_eq!(v.bump_fpi_counter(), 1);
            assert_eq!(v.bump_fpi_counter(), 2);
            v.reset_fpi_counter();
            assert_eq!(v.bump_fpi_counter(), 1);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let (_fm, _log, pool) = setup(16);
        let pool = Arc::new(pool);
        for i in 1..=8u64 {
            format_on(&pool, PageId(i), Lsn(i));
        }
        std::thread::scope(|s| {
            for t in 0..8 {
                let pool = pool.clone();
                s.spawn(move || {
                    for round in 0..200u64 {
                        let pid = PageId(1 + (t as u64 + round) % 8);
                        if round % 3 == 0 {
                            pool.with_page_mut(pid, |v| {
                                let lsn = Lsn(1000 + round);
                                v.page_mut().set_page_lsn(lsn);
                                v.mark_dirty(lsn);
                                Ok(())
                            })
                            .unwrap();
                        } else {
                            pool.with_page(pid, |p| {
                                assert_eq!(p.page_id(), pid);
                                Ok(())
                            })
                            .unwrap();
                        }
                    }
                });
            }
        });
        assert_eq!(pool.pinned_frames(), 0, "no lost pins");
    }

    #[test]
    fn invalid_page_rejected() {
        let (_fm, _log, pool) = setup(4);
        assert!(pool.with_page(PageId::INVALID, |_| Ok(())).is_err());
    }

    #[test]
    fn read_guard_pins_then_releases() {
        let (_fm, _log, pool) = setup(8);
        format_on(&pool, PageId(3), Lsn(4));
        {
            let g = pool.read_page(PageId(3)).unwrap();
            assert_eq!(g.page_id(), PageId(3));
            assert_eq!(g.page_lsn(), Lsn(4));
            assert_eq!(pool.pinned_frames(), 1, "guard holds the pin");
            // a second reader shares the latch
            let g2 = pool.read_page(PageId(3)).unwrap();
            assert_eq!(g2.page_lsn(), Lsn(4));
        }
        assert_eq!(pool.pinned_frames(), 0, "drop releases latch and pin");
    }

    #[test]
    fn scan_partition_bounds_cold_stream_damage() {
        let (_fm, _log, pool) = setup(32);
        // Establish a live working set filling most of the pool.
        let working: Vec<PageId> = (1..=24u64).map(PageId).collect();
        for &pid in &working {
            pool.with_page(pid, |_| Ok(())).unwrap();
        }
        // Re-touch so every working frame has its reference bit set.
        for &pid in &working {
            pool.with_page(pid, |_| Ok(())).unwrap();
        }
        // Cold stream 4x the pool size through a 4-frame partition.
        let part = pool.scan_partition(4);
        for pid in 100..=228u64 {
            let g = pool
                .read_page_staged_in(PageId(pid), Some(&part), None)
                .unwrap();
            assert_eq!(g.page_id(), PageId(0), "fresh pages read as zeroed");
        }
        assert!(part.ring.borrow().len() <= part.budget());
        // The stream may claim at most its budget from the working set
        // (initial fills come from the global clock until the ring is at
        // budget; everything after reuses the ring).
        let still_resident = working.iter().filter(|&&p| pool.contains(p)).count();
        assert!(
            still_resident >= working.len() - part.budget(),
            "scan evicted more than its budget: {} of {} resident",
            still_resident,
            working.len()
        );
        assert_eq!(pool.pinned_frames(), 0);
    }

    #[test]
    fn scan_partition_budget_is_clamped() {
        // (pool frames, budget, frames the partition may hold), in the
        // order the rule applies: default, floor, cap.
        for (cap, budget, want) in [
            (64, 0, 8),    // 0 is an eighth of the pool
            (64, 5, 5),    // an explicit budget is kept
            (64, 1, 2),    // floored at two frames
            (8, 0, 2),     // the floor applies to the default too
            (64, 100, 32), // capped at half the pool
        ] {
            let (_fm, _log, pool) = setup(cap);
            assert_eq!(
                pool.scan_partition(budget).budget(),
                want,
                "pool {cap}, budget {budget}"
            );
        }
    }

    #[test]
    fn unpartitioned_path_unaffected_by_partition_existence() {
        let (_fm, _log, pool) = setup(8);
        let _part = pool.scan_partition(2);
        format_on(&pool, PageId(1), Lsn(1)); // miss
        pool.with_page(PageId(1), |_| Ok(())).unwrap(); // hit
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn hit_miss_counters_track_serial_accesses() {
        let (_fm, _log, pool) = setup(8);
        format_on(&pool, PageId(1), Lsn(1)); // miss
        pool.with_page(PageId(1), |_| Ok(())).unwrap(); // hit
        pool.with_page(PageId(2), |_| Ok(())).unwrap(); // miss
        let s = pool.stats();
        assert_eq!(s.misses, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.evictions, 0);
    }

    /// A file manager that fails the next N reads/writes — exercises the
    /// claim-release error paths that `MemFileManager` can never reach —
    /// and, while `hold_batches` is set, parks every `write_pages` call (a
    /// flush chunk) with `held` raised until the flag clears. Armed with
    /// `hold_one_read`, it parks the next `read_page` *after* it has read
    /// the media, with `read_parked` raised until the test clears it.
    struct FaultyFm {
        inner: MemFileManager,
        fail_reads: AtomicU32,
        fail_writes: AtomicU32,
        hold_batches: AtomicBool,
        held: AtomicBool,
        hold_one_read: AtomicBool,
        read_parked: AtomicBool,
    }

    impl FaultyFm {
        fn new() -> Self {
            FaultyFm {
                inner: MemFileManager::new(),
                fail_reads: AtomicU32::new(0),
                fail_writes: AtomicU32::new(0),
                hold_batches: AtomicBool::new(false),
                held: AtomicBool::new(false),
                hold_one_read: AtomicBool::new(false),
                read_parked: AtomicBool::new(false),
            }
        }

        fn trip(counter: &AtomicU32) -> bool {
            counter
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
                .is_ok()
        }
    }

    impl rewind_pagestore::FileManager for FaultyFm {
        fn read_page(&self, pid: PageId) -> Result<Page> {
            if Self::trip(&self.fail_reads) {
                return Err(Error::Internal("injected read fault".into()));
            }
            let read = self.inner.read_page(pid);
            if self.hold_one_read.swap(false, Ordering::AcqRel) {
                self.read_parked.store(true, Ordering::Release);
                while self.read_parked.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            }
            read
        }
        fn read_page_seq(&self, pid: PageId) -> Result<Page> {
            self.inner.read_page_seq(pid)
        }
        fn write_page(&self, pid: PageId, page: &Page) -> Result<()> {
            if Self::trip(&self.fail_writes) {
                return Err(Error::Internal("injected write fault".into()));
            }
            self.inner.write_page(pid, page)
        }
        fn write_pages(&self, batch: &[(PageId, Page)]) -> Vec<Result<()>> {
            if self.hold_batches.load(Ordering::Acquire) {
                self.held.store(true, Ordering::Release);
                while self.hold_batches.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            }
            batch
                .iter()
                .map(|(pid, page)| self.write_page(*pid, page))
                .collect()
        }
        fn write_page_seq(&self, pid: PageId, page: &Page) -> Result<()> {
            self.inner.write_page_seq(pid, page)
        }
        fn page_count(&self) -> u64 {
            self.inner.page_count()
        }
        fn grow_to(&self, count: u64) -> Result<()> {
            self.inner.grow_to(count)
        }
        fn sync(&self) -> Result<()> {
            self.inner.sync()
        }
        fn io_stats(&self) -> &Arc<rewind_common::IoStats> {
            self.inner.io_stats()
        }
    }

    #[test]
    fn read_fault_on_miss_releases_claim_and_pool_recovers() {
        let fm = Arc::new(FaultyFm::new());
        let log = Arc::new(LogManager::new(LogConfig::default()));
        let pool = BufferPool::new(fm.clone(), log, 4);
        fm.fail_reads.store(1, Ordering::Release);
        assert!(pool.with_page(PageId(1), |_| Ok(())).is_err());
        // The claimed frame was handed back: no pins, and the same access
        // succeeds once the device recovers.
        assert_eq!(pool.pinned_frames(), 0);
        pool.with_page(PageId(1), |_| Ok(())).unwrap();
        for i in 2..=10u64 {
            pool.with_page(PageId(i), |_| Ok(())).unwrap();
        }
        assert_eq!(pool.pinned_frames(), 0);
    }

    #[test]
    fn write_fault_on_dirty_eviction_keeps_victim_reachable() {
        let fm = Arc::new(FaultyFm::new());
        let log = Arc::new(LogManager::new(LogConfig::default()));
        let pool = BufferPool::new(fm.clone(), log, 4);
        format_on(&pool, PageId(1), Lsn(1));
        for i in 2..=4u64 {
            pool.with_page(PageId(i), |_| Ok(())).unwrap();
        }
        // Keep faulting misses in until the one that has to evict the
        // (sole) dirty frame trips the injected write failure.
        fm.fail_writes.store(1, Ordering::Release);
        let mut tripped = false;
        for i in 5..=20u64 {
            if pool.with_page(PageId(i), |_| Ok(())).is_err() {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "eviction write-back fault must surface");
        assert_eq!(pool.pinned_frames(), 0, "claim released on write fault");
        // The dirty victim stayed mapped with its content intact...
        assert!(pool.contains(PageId(1)));
        pool.with_page(PageId(1), |p| {
            assert_eq!(p.page_type(), PageType::Heap);
            Ok(())
        })
        .unwrap();
        // ...and once the device recovers, eviction proceeds and the page
        // lands on disk.
        for i in 5..=12u64 {
            pool.with_page(PageId(i), |_| Ok(())).unwrap();
        }
        pool.flush_all().unwrap();
        assert_eq!(
            fm.read_page(PageId(1)).unwrap().page_type(),
            PageType::Heap,
            "dirty page survived the injected fault"
        );
    }

    /// Touch enough other pages of a 4-frame pool to evict every unpinned
    /// frame that held something before.
    fn churn(pool: &BufferPool) {
        for i in 100..=108u64 {
            pool.with_page(PageId(i), |_| Ok(())).unwrap();
        }
    }

    fn set_lsn(pool: &BufferPool, pid: PageId, lsn: Lsn) {
        pool.with_page_mut(pid, |v| {
            v.page_mut().set_page_lsn(lsn);
            v.mark_dirty(lsn);
            Ok(())
        })
        .unwrap();
    }

    /// A flush chunk is held in flight while its page changes to LSN 20 and
    /// the pool is churned. The page is pinned by the flush, so no eviction
    /// can write LSN 20 before the LSN 10 clone lands over it: the pool
    /// keeps serving 20, the page stays dirty, and the next flush writes 20.
    #[test]
    fn a_flush_never_lands_an_older_clone_over_an_eviction_write() {
        let fm = Arc::new(FaultyFm::new());
        let log = Arc::new(LogManager::new(LogConfig::default()));
        let pool = BufferPool::with_io(fm.clone(), log, 4, 16);
        format_on(&pool, PageId(1), Lsn(10));
        fm.hold_batches.store(true, Ordering::Release);
        std::thread::scope(|s| {
            let flusher = s.spawn(|| pool.flush_all());
            while !fm.held.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            set_lsn(&pool, PageId(1), Lsn(20));
            churn(&pool);
            fm.hold_batches.store(false, Ordering::Release);
            flusher.join().unwrap().unwrap();
        });
        assert_eq!(pool.read_page(PageId(1)).unwrap().page_lsn(), Lsn(20));
        assert!(
            pool.dirty_page_table().iter().any(|e| e.page == PageId(1)),
            "a page changed after its clone stays dirty"
        );
        pool.flush_all().unwrap();
        assert_eq!(fm.read_page(PageId(1)).unwrap().page_lsn(), Lsn(20));
        assert_eq!(pool.pinned_frames(), 0);
    }

    /// Page 1 is staged at LSN 10; a live writer then loads it, changes it
    /// to LSN 20 and evicts it. The miss must discard the staged image and
    /// read the media's, not install the older one.
    #[test]
    fn a_staged_image_is_discarded_once_its_page_was_written() {
        let (fm, log, _) = setup(4);
        let pool = BufferPool::with_io(fm.clone(), log, 4, 16);
        format_on(&pool, PageId(1), Lsn(10));
        churn(&pool);
        assert!(!pool.contains(PageId(1)));
        let (pid, staged) = pool.stage_read_run(&[PageId(1)]).pop().unwrap();
        assert_eq!(pid, PageId(1));
        set_lsn(&pool, PageId(1), Lsn(20));
        churn(&pool);
        assert!(!pool.contains(PageId(1)));
        assert_eq!(fm.read_page(PageId(1)).unwrap().page_lsn(), Lsn(20));
        let reads = fm.io_stats().snapshot().page_reads;
        let g = pool
            .read_page_staged_in(PageId(1), None, Some(staged))
            .unwrap();
        assert_eq!(g.page_lsn(), Lsn(20), "the pool serves the media's image");
        assert_eq!(
            fm.io_stats().snapshot().page_reads,
            reads + 1,
            "the discarded slot costs one scalar read"
        );
    }

    /// A scalar miss of page 1 reads LSN 10 and is held in flight; a live
    /// writer meanwhile loads page 1, changes it to LSN 20 and evicts it.
    /// The held miss must not publish its older image: the pool serves 20.
    #[test]
    fn a_scalar_miss_never_publishes_an_image_older_than_the_media() {
        let fm = Arc::new(FaultyFm::new());
        let log = Arc::new(LogManager::new(LogConfig::default()));
        let pool = BufferPool::new(fm.clone(), log, 4);
        format_on(&pool, PageId(1), Lsn(10));
        churn(&pool);
        assert_eq!(fm.read_page(PageId(1)).unwrap().page_lsn(), Lsn(10));
        fm.hold_one_read.store(true, Ordering::Release);
        std::thread::scope(|s| {
            let reader = s.spawn(|| pool.read_page(PageId(1)).map(|g| g.page_lsn()));
            while !fm.read_parked.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            set_lsn(&pool, PageId(1), Lsn(20));
            churn(&pool);
            assert_eq!(fm.read_page(PageId(1)).unwrap().page_lsn(), Lsn(20));
            fm.read_parked.store(false, Ordering::Release);
            assert_eq!(
                reader.join().unwrap().unwrap(),
                Lsn(20),
                "the held miss serves the media's newer image"
            );
        });
        assert_eq!(pool.read_page(PageId(1)).unwrap().page_lsn(), Lsn(20));
        assert_eq!(pool.pinned_frames(), 0);
    }

    /// Each transient fault on a flush chunk's slot resumes the pool's one
    /// retry protocol: one counted retry per fault, and every page lands.
    #[test]
    fn flush_retries_each_faulted_slot_once() {
        let fi = Arc::new(rewind_pagestore::FaultInjector::new(5));
        let log = Arc::new(LogManager::new(LogConfig::default()));
        let pool = BufferPool::with_io(fi.clone(), log, 16, 16);
        for i in 1..=3u64 {
            format_on(&pool, PageId(i), Lsn(i));
        }
        fi.arm_eio_writes(2);
        pool.flush_all().unwrap();
        assert_eq!(fi.io_stats().snapshot().io_retries, 2);
        assert!(pool.dirty_page_table().is_empty());
        for i in 1..=3u64 {
            assert_eq!(fi.read_page(PageId(i)).unwrap().page_lsn(), Lsn(i));
        }
    }

    #[test]
    fn readers_race_drop_cache_without_lost_pins() {
        let (_fm, _log, pool) = setup(8);
        let pool = Arc::new(pool);
        for i in 1..=6u64 {
            format_on(&pool, PageId(i), Lsn(i));
        }
        pool.flush_all().unwrap();
        std::thread::scope(|s| {
            for t in 0..4 {
                let pool = pool.clone();
                s.spawn(move || {
                    for round in 0..300u64 {
                        let pid = PageId(1 + (t + round) % 6);
                        pool.with_page(pid, |p| {
                            // never torn: the latched frame holds exactly
                            // the requested (or zeroed-on-disk) page
                            assert!(
                                p.page_id() == pid || p.page_id() == PageId(0),
                                "torn frame: wanted {pid:?} got {:?}",
                                p.page_id()
                            );
                            Ok(())
                        })
                        .unwrap();
                    }
                });
            }
            let pool = pool.clone();
            s.spawn(move || {
                for _ in 0..50 {
                    pool.drop_cache();
                    std::thread::yield_now();
                }
            });
        });
        assert_eq!(pool.pinned_frames(), 0, "no lost pins after crash races");
    }
}
