//! The [`Database`] facade: lifecycle, transactions, DDL, checkpoints,
//! retention and snapshots.

use crate::boot::{self, BootInfo};
use crate::catalog::{self, IndexInfo, SysTrees, TableInfo, TableKind};
use crate::snapdb::SnapshotDb;
use parking_lot::{Condvar, Mutex, RwLock};
use rewind_access::store::{ModKind, Store};
use rewind_access::{BTree, Heap, Schema};
use rewind_buffer::{BufferPool, MIN_FRAMES};
use rewind_common::{Error, IoSnapshot, Lsn, ObjectId, PageId, Result, SimClock, Timestamp, TxnId};
use rewind_obs::{EventKind, FnSource, IoStatsSource, MetricsRegistry, MetricsSnapshot, Obs};
use rewind_pagestore::{FileManager, MemFileManager, PageType};
use rewind_recovery::{
    pipelined_restart, rollback::undo_record_view, take_checkpoint, take_checkpoint_incremental,
    undo_sweep, AccessKind, EngineParts, EngineStore, RestartOutcome,
};
use rewind_snapshot::AsOfSnapshot;
use rewind_txn::{LockKey, LockManager, LockMode, ObjectLatches, TxnManager, TxnShared, TxnState};
use rewind_wal::{CheckpointBody, LogConfig, LogManager, LogPayloadView, LogRecord};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct DbConfig {
    /// Buffer pool size in 8 KiB frames: at least
    /// `rewind_buffer::MIN_FRAMES` (4), else creating, opening or
    /// recovering the database fails with `Error::InvalidArg`.
    pub buffer_pages: usize,
    /// The size, in pool frames, of the scan partition every bulk as-of
    /// stream runs in — each multi-row snapshot read (`scan_all`,
    /// `scan_prefix`, `scan_between`, tree or heap) and `prefetch_table`;
    /// 0 (the default) is an eighth of the pool. A bulk as-of stream larger
    /// than the buffer pool disturbs at most this many of the pool's
    /// frames, so the live working set survives snapshot table scans. It
    /// sizes the partition and never turns it off: the pool floors it at
    /// two frames and caps it at half the pool (`BufferPool::scan_partition`).
    pub asof_scan_budget: usize,
    /// Full-page-image interval N (paper §6.1); 0 disables FPIs.
    pub fpi_interval: u32,
    /// Lock wait timeout.
    pub lock_timeout: Duration,
    /// Take a checkpoint after this many log bytes (0 = manual only). The
    /// paper's "target recovery interval" expressed in log volume. Commits
    /// that cross the interval kick a background daemon which takes a
    /// *fuzzy incremental* checkpoint (flushing only pages first dirtied
    /// before `tail - interval`), so restart time tracks this interval
    /// while commits never stall behind a pool flush.
    pub checkpoint_interval_bytes: u64,
    /// Log manager tuning.
    pub log: LogConfig,
    /// Initial retention period in microseconds (paper §4.3); 0 retains
    /// everything until configured otherwise.
    pub retention_micros: u64,
}

/// Pages per vectored read / write-back chunk. Batching changes only the
/// device-op count, never per-page accounting
/// (`crates/buffer/tests/prop_batched_io.rs` sweeps it against batch 1).
const IO_BATCH_PAGES: usize = 16;

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            buffer_pages: 4096,
            asof_scan_budget: 0,
            fpi_interval: 0,
            lock_timeout: Duration::from_secs(5),
            checkpoint_interval_bytes: 8 << 20,
            log: LogConfig::default(),
            retention_micros: 0,
        }
    }
}

/// A transaction handle. Obtain with [`Database::begin`]; finish with
/// [`Database::commit`] or [`Database::rollback`]. Dropping an unfinished
/// handle leaks its locks until rolled back by id.
pub struct Txn {
    pub(crate) shared: Arc<TxnShared>,
}

impl Txn {
    /// The transaction's id.
    pub fn id(&self) -> TxnId {
        self.shared.id
    }

    /// LSN of the transaction's most recent log record.
    pub fn last_lsn(&self) -> Lsn {
        self.shared.chain.last_lsn()
    }
}

/// Counters describing current database state.
#[derive(Clone, Copy, Debug)]
pub struct DbStats {
    /// Pages currently allocated.
    pub allocated_pages: usize,
    /// Total log bytes ever written.
    pub log_bytes: u64,
    /// Log bytes still retained.
    pub log_retained_bytes: u64,
    /// Active transactions.
    pub active_txns: usize,
}

/// Per-phase accounting of one ARIES restart ([`Database::recover`]):
/// wall-clock time and record counts for analysis, redo and undo. The
/// paper's recovery-cost story ("bound by the amount of log scanned",
/// §6.2) is exactly these three numbers over the log window.
///
/// Durations come from the process monotonic timebase
/// ([`rewind_obs::monotonic_us`]), not the obs handle, so they are real
/// even on a disabled-obs engine. Analysis and redo overlap by design —
/// restart pipelines the two passes over one forward scan.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Analysis duration (µs): restart start until the loser/lock tables
    /// were final.
    pub analysis_us: u64,
    /// Log records visited by the analysis scan.
    pub records_scanned: u64,
    /// In-flight transactions found at the crash point.
    pub losers: u64,
    /// Ids of those transactions, ascending.
    pub loser_txns: Vec<TxnId>,
    /// Redo duration (µs): restart start until the last redo worker
    /// drained.
    pub redo_us: u64,
    /// Page operations re-applied by redo.
    pub records_redone: u64,
    /// Redo worker threads used by the partitioned dispatcher.
    pub redo_workers: u64,
    /// Records applied by each redo worker (shows partition skew; sums to
    /// `records_redone`).
    pub redone_per_worker: Vec<u64>,
    /// Undo sweep duration (µs).
    pub undo_us: u64,
    /// Loser records compensated (CLRs written).
    pub records_undone: u64,
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "recovery: analysis {:.3}ms ({} records, {} losers) | redo {:.3}ms ({} applied, {} workers) | undo {:.3}ms ({} compensated)",
            self.analysis_us as f64 / 1000.0,
            self.records_scanned,
            self.losers,
            self.redo_us as f64 / 1000.0,
            self.records_redone,
            self.redo_workers,
            self.undo_us as f64 / 1000.0,
            self.records_undone,
        )
    }
}

/// What survives a crash: the database file, the durable log, and the clock.
pub struct CrashArtifacts {
    /// The database file.
    pub fm: Arc<dyn FileManager>,
    /// In-memory backend handle, when applicable (backup support).
    pub fm_mem: Option<Arc<MemFileManager>>,
    /// The write-ahead log (its unflushed tail is discarded by recovery).
    pub log: Arc<LogManager>,
    /// The simulated wall clock.
    pub clock: SimClock,
    /// Configuration to reopen with.
    pub config: DbConfig,
}

/// An embedded database instance.
pub struct Database {
    pub(crate) parts: Arc<EngineParts>,
    fm_mem: Option<Arc<MemFileManager>>,
    pub(crate) txns: Arc<TxnManager>,
    pub(crate) locks: Arc<LockManager>,
    pub(crate) clock: SimClock,
    config: DbConfig,
    pub(crate) sys: SysTrees,
    table_cache: RwLock<HashMap<u64, Arc<TableInfo>>>,
    name_cache: RwLock<HashMap<String, u64>>,
    /// Shared with the checkpoint daemon's retention enforcement.
    retention_micros: Arc<AtomicU64>,
    /// Errors from background maintenance (the checkpoint daemon) that
    /// must not fail the foreground operation; drained by
    /// [`Database::take_background_errors`]. Shared with the daemon thread.
    background_errors: Arc<Mutex<Vec<(String, Error)>>>,
    /// Shared with the metrics registry's snapshot gauge source.
    snapshots: Arc<Mutex<HashMap<String, Arc<AsOfSnapshot>>>>,
    metrics: Arc<MetricsRegistry>,
    /// Phase report from the restart that produced this instance, if any.
    last_recovery: Mutex<Option<RecoveryReport>>,
    /// Background checkpoint daemon; `None` when
    /// `checkpoint_interval_bytes` is 0 (manual checkpoints only).
    checkpointer: Option<Checkpointer>,
}

impl Database {
    /// Create a fresh in-memory database.
    pub fn create(config: DbConfig) -> Result<Database> {
        Self::create_with_clock(config, SimClock::new())
    }

    /// Create a fresh in-memory database sharing an external clock.
    pub fn create_with_clock(config: DbConfig, clock: SimClock) -> Result<Database> {
        let fm_mem = Arc::new(MemFileManager::new());
        let fm: Arc<dyn FileManager> = fm_mem.clone();
        let log = Arc::new(LogManager::new(config.log.clone()));
        let db = Self::assemble(fm, Some(fm_mem), log, clock, config, true)?;
        Ok(db)
    }

    /// Create a fresh database over an arbitrary [`FileManager`] backend
    /// (fault-injection harnesses, alternative storage). Backends that are
    /// not [`MemFileManager`] have no backup support.
    pub fn create_on(
        fm: Arc<dyn FileManager>,
        config: DbConfig,
        clock: SimClock,
    ) -> Result<Database> {
        let log = Arc::new(LogManager::new(config.log.clone()));
        Self::assemble(fm, None, log, clock, config, true)
    }

    /// Open a database over an already-consistent file and log (no
    /// recovery). Used by backup/restore, which rebuilds the file itself.
    pub fn open_existing(
        fm_mem: Arc<MemFileManager>,
        log: Arc<LogManager>,
        clock: SimClock,
        config: DbConfig,
    ) -> Result<Database> {
        let fm: Arc<dyn FileManager> = fm_mem.clone();
        Self::assemble(fm, Some(fm_mem), log, clock, config, false)
    }

    fn make_parts(
        fm: Arc<dyn FileManager>,
        log: Arc<LogManager>,
        config: &DbConfig,
    ) -> Result<Arc<EngineParts>> {
        if config.buffer_pages < MIN_FRAMES {
            return Err(Error::InvalidArg(format!(
                "buffer_pages is {}; the pool needs at least {MIN_FRAMES} frames",
                config.buffer_pages
            )));
        }
        let pool = Arc::new(BufferPool::with_io(
            fm,
            log.clone(),
            config.buffer_pages,
            IO_BATCH_PAGES,
        ));
        Ok(Arc::new(EngineParts {
            pool,
            log,
            latches: Arc::new(ObjectLatches::new()),
            alloc_lock: Mutex::new(()),
            mod_gate: RwLock::new(()),
            cow_sinks: RwLock::new(Vec::new()),
            cow_token: AtomicU64::new(1),
            fpi_interval: config.fpi_interval,
        }))
    }

    fn assemble(
        fm: Arc<dyn FileManager>,
        fm_mem: Option<Arc<MemFileManager>>,
        log: Arc<LogManager>,
        clock: SimClock,
        config: DbConfig,
        bootstrap: bool,
    ) -> Result<Database> {
        let parts = Self::make_parts(fm, log, &config)?;
        Self::assemble_from_parts(parts, fm_mem, clock, config, bootstrap)
    }

    fn assemble_from_parts(
        parts: Arc<EngineParts>,
        fm_mem: Option<Arc<MemFileManager>>,
        clock: SimClock,
        config: DbConfig,
        bootstrap: bool,
    ) -> Result<Database> {
        let txns = Arc::new(TxnManager::new());
        let locks = Arc::new(LockManager::new(config.lock_timeout));
        let retention = Arc::new(AtomicU64::new(config.retention_micros));

        let sys = if bootstrap {
            // Bootstrap: system trees + boot page, all logged in one txn.
            let txn = txns.begin();
            let store = EngineStore::new(&parts, &txn);
            let tables = BTree::create(&store, ObjectId::SYS_TABLES)?;
            let columns = BTree::create(&store, ObjectId::SYS_COLUMNS)?;
            let indexes = BTree::create(&store, ObjectId::SYS_INDEXES)?;
            boot::initialize_boot(
                &store,
                &BootInfo {
                    sys_tables_root: tables.root,
                    sys_columns_root: columns.root,
                    sys_indexes_root: indexes.root,
                    next_object_id: ObjectId::FIRST_USER.0,
                    fpi_interval: config.fpi_interval,
                    retention_micros: config.retention_micros,
                },
            )?;
            let mut commit = LogRecord::marker(
                txn.id,
                LogPayloadView::Commit {
                    at: Timestamp::ZERO,
                },
            );
            let commit_range = parts
                .log
                .append_stamped(Some(&txn.chain), &mut commit, &|| clock.now());
            parts.log.flush_up_to(commit_range.end);
            txns.finish(txn.id);
            SysTrees {
                tables,
                columns,
                indexes,
            }
        } else {
            let txn = txns.begin();
            let store = EngineStore::new(&parts, &txn);
            let boot = boot::read_boot(&store)?;
            // durable settings win over construction defaults
            retention.store(boot.retention_micros, Ordering::Release);
            let sys = SysTrees::from_boot(&boot);
            txns.finish(txn.id);
            sys
        };

        let snapshots: Arc<Mutex<HashMap<String, Arc<AsOfSnapshot>>>> =
            Arc::new(Mutex::new(HashMap::new()));
        let metrics = Self::build_metrics(&parts, &txns, &snapshots);
        let background_errors: Arc<Mutex<Vec<(String, Error)>>> = Arc::new(Mutex::new(Vec::new()));
        let checkpointer = (config.checkpoint_interval_bytes > 0).then(|| {
            Checkpointer::start(MaintenanceCtx {
                parts: parts.clone(),
                txns: txns.clone(),
                clock: clock.clone(),
                interval: config.checkpoint_interval_bytes,
                retention_micros: retention.clone(),
                snapshots: snapshots.clone(),
                errors: background_errors.clone(),
            })
        });
        let db = Database {
            parts,
            fm_mem,
            txns,
            locks,
            clock,
            config,
            sys,
            table_cache: RwLock::new(HashMap::new()),
            name_cache: RwLock::new(HashMap::new()),
            retention_micros: retention,
            background_errors,
            snapshots,
            metrics,
            last_recovery: Mutex::new(None),
            checkpointer,
        };
        if bootstrap {
            db.checkpoint()?;
        }
        Ok(db)
    }

    /// Compose the engine-wide metrics registry: every layer's counters
    /// under stable names, plus the obs event/histogram source. Sources
    /// only read (atomics and one snapshot-map lock), so a registry
    /// snapshot never blocks the write path.
    fn build_metrics(
        parts: &Arc<EngineParts>,
        txns: &Arc<TxnManager>,
        snapshots: &Arc<Mutex<HashMap<String, Arc<AsOfSnapshot>>>>,
    ) -> Arc<MetricsRegistry> {
        let reg = MetricsRegistry::new();
        reg.register(Box::new(IoStatsSource {
            prefix: "io_data",
            stats: parts.pool.file_manager().io_stats().clone(),
        }));
        reg.register(Box::new(IoStatsSource {
            prefix: "io_log",
            stats: parts.log.io_stats().clone(),
        }));
        let pool = parts.pool.clone();
        reg.register(Box::new(FnSource(move |out: &mut MetricsSnapshot| {
            let s = pool.stats();
            out.counter("pool_hits", s.hits);
            out.counter("pool_misses", s.misses);
            out.counter("pool_evictions", s.evictions);
            out.counter("pool_map_contended", s.map_contended);
            out.counter("pool_pinned", pool.pinned_frames() as u64);
        })));
        let log = parts.log.clone();
        reg.register(Box::new(FnSource(move |out: &mut MetricsSnapshot| {
            out.counter("log_total_bytes", log.total_bytes());
            out.counter("log_retained_bytes", log.retained_bytes());
        })));
        let t = txns.clone();
        reg.register(Box::new(FnSource(move |out: &mut MetricsSnapshot| {
            out.counter("txn_active", t.active_count() as u64);
        })));
        let snaps = snapshots.clone();
        reg.register(Box::new(FnSource(move |out: &mut MetricsSnapshot| {
            let snaps = snaps.lock();
            let mut side_pages = 0u64;
            let mut view = rewind_snapshot::stats::SnapshotStatsView::default();
            for s in snaps.values() {
                side_pages += s.side_pages() as u64;
                let v = s.stats();
                view.side_hits += v.side_hits;
                view.pages_prepared += v.pages_prepared;
                view.records_undone += v.records_undone;
                view.fpi_restores += v.fpi_restores;
                view.undo_records += v.undo_records;
            }
            out.counter("asof_open", snaps.len() as u64);
            out.counter("asof_side_pages", side_pages);
            out.counter("asof_side_hits", view.side_hits);
            out.counter("asof_pages_prepared", view.pages_prepared);
            out.counter("asof_records_undone", view.records_undone);
            out.counter("asof_fpi_restores", view.fpi_restores);
            out.counter("asof_bg_undo_records", view.undo_records);
        })));
        reg.register(Box::new(parts.log.obs().clone()));
        Arc::new(reg)
    }

    // ---- accessors -----------------------------------------------------------

    /// The simulated wall clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Shared engine internals (used by snapshots, backup and benches).
    pub fn parts(&self) -> &Arc<EngineParts> {
        &self.parts
    }

    /// The write-ahead log.
    pub fn log(&self) -> &Arc<LogManager> {
        &self.parts.log
    }

    /// The in-memory file backend, when applicable (backup support).
    pub fn mem_file(&self) -> Option<&Arc<MemFileManager>> {
        self.fm_mem.as_ref()
    }

    /// Data-file I/O counters.
    pub fn data_io(&self) -> IoSnapshot {
        self.parts.pool.file_manager().io_stats().snapshot()
    }

    /// Buffer pool access counters (hits, misses, evictions, page-table
    /// lock contention).
    pub fn pool_stats(&self) -> rewind_buffer::PoolStatsView {
        self.parts.pool.stats()
    }

    /// Log I/O counters.
    pub fn log_io(&self) -> IoSnapshot {
        self.parts.log.io_stats().snapshot()
    }

    /// The engine's observability handle (event ring + latency
    /// histograms). Owned by the log manager; see `LogConfig::obs`.
    pub fn obs(&self) -> &Arc<Obs> {
        self.parts.log.obs()
    }

    /// One coherent point-in-time snapshot of every registered metric.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Phase timings of the restart that produced this instance; `None`
    /// for instances not created by [`Database::recover`].
    pub fn last_recovery(&self) -> Option<RecoveryReport> {
        self.last_recovery.lock().clone()
    }

    /// Current engine statistics.
    pub fn stats(&self) -> Result<DbStats> {
        let txn = self.txns.begin();
        let store = EngineStore::new(&self.parts, &txn);
        let allocated = rewind_access::allocator::allocated_count(&store)?;
        self.txns.finish(txn.id);
        Ok(DbStats {
            allocated_pages: allocated,
            log_bytes: self.parts.log.total_bytes(),
            log_retained_bytes: self.parts.log.retained_bytes(),
            active_txns: self.txns.active_count(),
        })
    }

    // ---- transactions ---------------------------------------------------------

    /// Begin a transaction.
    pub fn begin(&self) -> Txn {
        Txn {
            shared: self.txns.begin(),
        }
    }

    /// The live-engine store bound to `txn`.
    pub fn store<'a>(&'a self, txn: &'a Txn) -> EngineStore<'a> {
        EngineStore::new(&self.parts, &txn.shared)
    }

    /// Commit: append the commit record stamped with the wall clock (the
    /// stamp SplitLSN search keys on, §5.1), force the log, release locks.
    ///
    /// The commit path is the group-commit fast path: stamp+append happen
    /// under ONE writer-mutex acquisition (`append_stamped` folds the clock
    /// read into the append, keeping stamps monotone in LSN order without a
    /// separate stamp lock), and the flush coalesces with concurrent
    /// committers — N commits pay one physical flush, each charged exactly
    /// its own framed bytes.
    ///
    /// Once the flush succeeds the commit is infallible: background
    /// maintenance (the post-commit checkpoint) can no longer fail it.
    /// Maintenance errors are deferred to
    /// [`Database::take_background_errors`] instead of being reported as a
    /// failure of a transaction that is, in fact, durable.
    pub fn commit(&self, txn: Txn) -> Result<()> {
        let shared = txn.shared;
        if shared.state() != TxnState::Active {
            return Err(Error::TxnFinished(shared.id));
        }
        let last_lsn = shared.chain.last_lsn();
        if last_lsn.is_valid() {
            let obs = self.parts.log.obs();
            let commit_started = obs.now_us();
            obs.record(EventKind::CommitBegin, last_lsn.0, shared.id.0, 0);
            let mut rec = LogRecord::marker(
                shared.id,
                LogPayloadView::Commit {
                    at: Timestamp::ZERO,
                },
            );
            // The append closes the chain under the writer mutex, so no
            // checkpoint can list this transaction once its commit is in the
            // log. The returned range's end is the commit record's exact
            // frame end: flushing through it needs no second writer-mutex
            // trip.
            let range = self
                .parts
                .log
                .append_stamped(Some(&shared.chain), &mut rec, &|| self.clock.now());
            self.parts.log.flush_up_to(range.end);
            // The flush returned: this commit is durable. One histogram
            // sample per durable commit — the count-exactness invariant
            // the obs tests and the CI smoke gate assert.
            let dur = obs.now_us().saturating_sub(commit_started);
            obs.commit_latency_us(dur);
            obs.record(EventKind::CommitDurable, range.start.0, shared.id.0, dur);
        }
        shared.set_state(TxnState::Committed);
        self.locks.release_all(shared.id);
        self.txns.finish(shared.id);
        // Checkpoint cadence runs off the commit path: when this commit
        // crossed the interval, kick the daemon and return immediately.
        if self.checkpoint_due() {
            if let Some(c) = &self.checkpointer {
                c.kick();
            }
        }
        Ok(())
    }

    /// Drain errors from deferred background maintenance (e.g. a checkpoint
    /// that failed after a commit was already durable). Empty in healthy
    /// operation; monitoring should poll this. Tests wanting deterministic
    /// observation should [`Database::quiesce_checkpoints`] first.
    pub fn take_background_errors(&self) -> Vec<(String, Error)> {
        std::mem::take(&mut *self.background_errors.lock())
    }

    /// Wait until the background checkpoint daemon has processed every kick
    /// issued so far. After this returns, maintenance triggered by earlier
    /// commits has completed (successfully or into
    /// [`Database::take_background_errors`]). No-op when the daemon is
    /// disabled (`checkpoint_interval_bytes == 0`).
    pub fn quiesce_checkpoints(&self) {
        if let Some(c) = &self.checkpointer {
            c.quiesce();
        }
    }

    /// Roll the transaction back: walk its chain writing CLRs (§4.2-2),
    /// then release locks.
    pub fn rollback(&self, txn: Txn) -> Result<()> {
        let shared = txn.shared;
        if shared.state() != TxnState::Active {
            return Err(Error::TxnFinished(shared.id));
        }
        if shared.chain.last_lsn().is_valid() {
            self.append_marker(&shared, LogPayloadView::Abort);
            let store = EngineStore::new(&self.parts, &shared);
            let resolver = |obj: ObjectId| self.resolve_access_uncached(obj);
            let from = shared.chain.last_lsn();
            rewind_recovery::rollback_chain(&store, &self.parts.log, from, &resolver)?;
            let end = self.append_marker(&shared, LogPayloadView::End);
            // Record-precise: force exactly through our End marker, not
            // whatever other transactions have appended since.
            self.parts.log.flush_to(end);
        }
        shared.set_state(TxnState::Aborted);
        self.locks.release_all(shared.id);
        self.txns.finish(shared.id);
        // DDL may have been undone; drop caches wholesale.
        self.invalidate_catalog();
        Ok(())
    }

    fn append_marker(&self, shared: &TxnShared, payload: LogPayloadView<'_>) -> Lsn {
        self.parts
            .log
            .append_batch(&shared.chain, &mut [LogRecord::marker(shared.id, payload)])
            .start
    }

    /// Run `f` inside a fresh transaction, committing on success and rolling
    /// back on error.
    pub fn with_txn<R>(&self, f: impl FnOnce(&Txn) -> Result<R>) -> Result<R> {
        let txn = self.begin();
        match f(&txn) {
            Ok(r) => {
                self.commit(txn)?;
                Ok(r)
            }
            Err(e) => {
                let _ = self.rollback(txn);
                Err(e)
            }
        }
    }

    // ---- catalog / DDL ---------------------------------------------------------

    /// Look up a table by name (cached).
    pub fn table(&self, name: &str) -> Result<Arc<TableInfo>> {
        if let Some(&id) = self.name_cache.read().get(name) {
            if let Some(info) = self.table_cache.read().get(&id) {
                return Ok(info.clone());
            }
        }
        let txn = self.begin();
        let store = self.store(&txn);
        let found = catalog::read_table_by_name(&store, &self.sys, name)?;
        self.txns.finish(txn.shared.id);
        match found {
            Some(info) => {
                let info = Arc::new(info);
                self.name_cache.write().insert(name.to_string(), info.id.0);
                self.table_cache.write().insert(info.id.0, info.clone());
                Ok(info)
            }
            None => Err(Error::TableNotFound(name.to_string())),
        }
    }

    /// List all user tables.
    pub fn list_tables(&self) -> Result<Vec<TableInfo>> {
        let txn = self.begin();
        let store = self.store(&txn);
        let out = catalog::list_tables(&store, &self.sys)?;
        self.txns.finish(txn.shared.id);
        Ok(out)
    }

    pub(crate) fn invalidate_catalog(&self) {
        self.table_cache.write().clear();
        self.name_cache.write().clear();
    }

    /// Create a B-Tree table.
    pub fn create_table(&self, txn: &Txn, name: &str, schema: Schema) -> Result<ObjectId> {
        self.create_table_kind(txn, name, schema, TableKind::Tree)
    }

    /// Create a heap table.
    pub fn create_heap_table(&self, txn: &Txn, name: &str, schema: Schema) -> Result<ObjectId> {
        self.create_table_kind(txn, name, schema, TableKind::Heap)
    }

    fn create_table_kind(
        &self,
        txn: &Txn,
        name: &str,
        schema: Schema,
        kind: TableKind,
    ) -> Result<ObjectId> {
        let store = self.store(txn);
        // DDL serializes on the catalog.
        self.locks
            .acquire(txn.id(), &LockKey::table(ObjectId::SYS_TABLES), LockMode::X)?;
        if catalog::read_table_by_name(&store, &self.sys, name)?.is_some() {
            return Err(Error::InvalidArg(format!("table '{name}' already exists")));
        }
        let id = ObjectId(boot::allocate_object_id(&store)?);
        let root = match kind {
            TableKind::Tree => BTree::create(&store, id)?.root,
            TableKind::Heap => Heap::create(&store, id)?.first,
        };
        let info = TableInfo {
            id,
            name: name.to_string(),
            kind,
            root,
            schema: schema.clone(),
            indexes: Vec::new(),
        };
        self.sys
            .tables
            .insert(&store, &catalog::table_key(id), &catalog::table_row(&info))?;
        for (ord, col) in schema.columns.iter().enumerate() {
            let key_pos = schema.key.iter().position(|&k| k == ord);
            self.sys.columns.insert(
                &store,
                &catalog::column_key(id, ord),
                &catalog::column_row(id, ord, col, key_pos),
            )?;
        }
        self.invalidate_catalog();
        Ok(id)
    }

    /// Create a secondary index over named columns of a B-Tree table.
    pub fn create_index(
        &self,
        txn: &Txn,
        table_name: &str,
        index_name: &str,
        cols: &[&str],
    ) -> Result<ObjectId> {
        let store = self.store(txn);
        self.locks
            .acquire(txn.id(), &LockKey::table(ObjectId::SYS_TABLES), LockMode::X)?;
        let info = catalog::read_table_by_name(&store, &self.sys, table_name)?
            .ok_or_else(|| Error::TableNotFound(table_name.to_string()))?;
        if info.indexes.iter().any(|i| i.name == index_name) {
            return Err(Error::InvalidArg(format!(
                "index '{index_name}' already exists"
            )));
        }
        // Block concurrent writers while building.
        self.locks
            .acquire(txn.id(), &LockKey::table(info.id), LockMode::X)?;
        let col_ords: Vec<usize> = cols
            .iter()
            .map(|c| info.schema.column_index(c))
            .collect::<Result<_>>()?;
        let id = ObjectId(boot::allocate_object_id(&store)?);
        let tree = BTree::create(&store, id)?;
        let idx = IndexInfo {
            id,
            name: index_name.to_string(),
            root: tree.root,
            cols: col_ords,
        };
        // Backfill from existing rows: index entries map
        // (indexed cols + pk) -> pk bytes so base rows can be fetched.
        let base = info.tree()?;
        let mut entries: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        base.scan(
            &store,
            std::ops::Bound::Unbounded,
            std::ops::Bound::Unbounded,
            |k, v| {
                let row = rewind_access::value::decode_row(v)?;
                entries.push((info.index_key_bytes(&idx, &row)?, k.to_vec()));
                Ok(true)
            },
        )?;
        for (ikey, pk) in entries {
            tree.insert(&store, &ikey, &pk)?;
        }
        self.sys.indexes.insert(
            &store,
            &catalog::index_key(id),
            &catalog::index_row(info.id, &idx),
        )?;
        self.invalidate_catalog();
        Ok(id)
    }

    /// Drop a secondary index: delete its catalog row and deallocate its
    /// pages (content left in place, so it too is recoverable as-of).
    pub fn drop_index(&self, txn: &Txn, table_name: &str, index_name: &str) -> Result<()> {
        let store = self.store(txn);
        self.locks
            .acquire(txn.id(), &LockKey::table(ObjectId::SYS_TABLES), LockMode::X)?;
        let info = catalog::read_table_by_name(&store, &self.sys, table_name)?
            .ok_or_else(|| Error::TableNotFound(table_name.to_string()))?;
        let idx = info.index(index_name)?.clone();
        self.locks
            .acquire(txn.id(), &LockKey::table(info.id), LockMode::X)?;
        let pages = idx.tree().collect_pages(&store)?;
        self.sys
            .indexes
            .delete(&store, &catalog::index_key(idx.id))?;
        for pid in pages {
            store.free_page(pid, ModKind::User)?;
        }
        self.invalidate_catalog();
        Ok(())
    }

    /// Drop a table: delete its catalog rows and deallocate its pages. Page
    /// *content* is left untouched (§4.2-1), which is exactly what makes the
    /// dropped table recoverable through an as-of snapshot.
    pub fn drop_table(&self, txn: &Txn, name: &str) -> Result<()> {
        let store = self.store(txn);
        self.locks
            .acquire(txn.id(), &LockKey::table(ObjectId::SYS_TABLES), LockMode::X)?;
        let info = catalog::read_table_by_name(&store, &self.sys, name)?
            .ok_or_else(|| Error::TableNotFound(name.to_string()))?;
        self.locks
            .acquire(txn.id(), &LockKey::table(info.id), LockMode::X)?;

        // Collect every page first (catalog rows must still be readable).
        let mut pages: Vec<PageId> = Vec::new();
        match info.kind {
            TableKind::Tree => pages.extend(info.tree()?.collect_pages(&store)?),
            TableKind::Heap => pages.extend(info.heap()?.collect_pages(&store)?),
        }
        for idx in &info.indexes {
            pages.extend(idx.tree().collect_pages(&store)?);
            self.sys
                .indexes
                .delete(&store, &catalog::index_key(idx.id))?;
        }
        self.sys
            .tables
            .delete(&store, &catalog::table_key(info.id))?;
        for ord in 0..info.schema.columns.len() {
            self.sys
                .columns
                .delete(&store, &catalog::column_key(info.id, ord))?;
        }
        for pid in pages {
            store.free_page(pid, ModKind::User)?;
        }
        self.invalidate_catalog();
        Ok(())
    }

    /// Truncate a B-Tree table: deallocate everything but the root and
    /// reformat the root as an empty leaf (old image logged as undo info).
    pub fn truncate_table(&self, txn: &Txn, name: &str) -> Result<()> {
        let store = self.store(txn);
        let info = self.table(name)?;
        self.locks
            .acquire(txn.id(), &LockKey::table(info.id), LockMode::X)?;
        let tree = info.tree()?;
        let pages = tree.collect_pages(&store)?;
        let root_image = store.with_page(tree.root, |p| Ok(Box::new(*p.image())))?;
        store.modify(
            tree.root,
            LogPayloadView::Reformat {
                object: info.id,
                ty: PageType::BTreeLeaf,
                level: 0,
                prev_image: &root_image,
            },
            ModKind::User,
        )?;
        for pid in pages {
            if pid != tree.root {
                store.free_page(pid, ModKind::User)?;
            }
        }
        Ok(())
    }

    // ---- object resolution (rollback, recovery) --------------------------------

    /// Resolve an object id to its access method ([`catalog::resolve_access`]
    /// over the live store), reading the catalog fresh: rollback may be
    /// restoring the catalog rows it needs, so caches are not trusted. A
    /// system tree resolves before any transaction is begun.
    pub fn resolve_access_uncached(&self, obj: ObjectId) -> Result<AccessKind> {
        if let Some(tree) = self.sys.tree_of(obj) {
            return Ok(AccessKind::Tree(tree));
        }
        let txn = self.txns.begin();
        let result = catalog::resolve_access(&EngineStore::new(&self.parts, &txn), &self.sys, obj);
        self.txns.finish(txn.id);
        result
    }

    // ---- checkpoints & retention ------------------------------------------------

    /// Take a fuzzy checkpoint now. Marker stamps are issued under the log's
    /// writer mutex — the same sequencer as commit stamps — so they can
    /// never be older than the last indexed commit.
    pub fn checkpoint(&self) -> Result<Lsn> {
        take_checkpoint(&self.parts.log, &self.txns, &self.parts.pool, &self.clock)
    }

    /// Whether enough log has accumulated since the last checkpoint to
    /// warrant another (always false when the interval is 0).
    fn checkpoint_due(&self) -> bool {
        let interval = self.config.checkpoint_interval_bytes;
        if interval == 0 {
            return false;
        }
        let last = self
            .parts
            .log
            .checkpoint_before(Lsn::MAX)
            .map(|c| c.end_lsn)
            .unwrap_or(Lsn::FIRST);
        self.parts.log.tail_lsn().bytes_since(last) >= interval
    }

    /// Synchronously take a checkpoint if enough log accumulated since the
    /// last one; also enforces the retention policy. Manual-maintenance
    /// entry point — commits instead kick the background daemon, which
    /// takes *incremental* checkpoints off the commit path.
    pub fn maybe_checkpoint(&self) -> Result<()> {
        if self.checkpoint_due() {
            self.checkpoint()?;
            self.enforce_retention();
        }
        Ok(())
    }

    /// `ALTER DATABASE SET UNDO_INTERVAL` (paper §4.3): retain enough log to
    /// rewind `interval` into the past. Durable (logged on the boot page).
    pub fn set_undo_interval(&self, interval: Duration) -> Result<()> {
        let micros = interval.as_micros() as u64;
        self.with_txn(|txn| {
            let store = self.store(txn);
            boot::set_retention(&store, micros)
        })?;
        self.retention_micros.store(micros, Ordering::Release);
        Ok(())
    }

    /// The configured retention period.
    pub fn undo_interval(&self) -> Duration {
        Duration::from_micros(self.retention_micros.load(Ordering::Acquire))
    }

    /// Truncate log that is older than the retention period and not needed
    /// by crash recovery, active transactions or open snapshots.
    pub fn enforce_retention(&self) {
        enforce_retention_on(
            &self.parts,
            &self.txns,
            &self.clock,
            self.retention_micros.load(Ordering::Acquire),
            &self.snapshots,
        );
    }

    // ---- snapshots ----------------------------------------------------------------

    /// `CREATE DATABASE <name> AS SNAPSHOT OF <db> AS OF '<t>'` (paper §5.1):
    /// build an as-of snapshot and start its background undo. The snapshot
    /// is queryable immediately.
    pub fn create_snapshot_asof(&self, name: &str, t: Timestamp) -> Result<SnapshotDb> {
        let snap = AsOfSnapshot::create(name, &self.parts, t)?;
        self.finish_snapshot_setup(name, snap)
    }

    /// An as-of snapshot split at an exact LSN (the repair engine's
    /// witness: "just before transaction T's first record" is an LSN, not a
    /// wall-clock time). `label` stamps the snapshot for reporting; the
    /// split alone determines its contents.
    pub fn create_snapshot_at_lsn(
        &self,
        name: &str,
        label: Timestamp,
        split: Lsn,
    ) -> Result<SnapshotDb> {
        let snap = AsOfSnapshot::create_at_lsn(name, &self.parts, label, split)?;
        self.finish_snapshot_setup(name, snap)
    }

    /// A regular (copy-on-write) snapshot of the current state (§2.2).
    pub fn create_snapshot(&self, name: &str) -> Result<SnapshotDb> {
        let snap = AsOfSnapshot::create_regular(name, &self.parts, self.clock.now())?;
        self.finish_snapshot_setup(name, snap)
    }

    fn finish_snapshot_setup(&self, name: &str, snap: Arc<AsOfSnapshot>) -> Result<SnapshotDb> {
        {
            let mut snaps = self.snapshots.lock();
            if snaps.contains_key(name) {
                snap.detach(&self.parts);
                return Err(Error::InvalidArg(format!(
                    "snapshot '{name}' already exists"
                )));
            }
            snaps.insert(name.to_string(), snap.clone());
        }
        // Background logical undo (§5.2): resolve objects through the
        // *snapshot's own* catalog (as of the SplitLSN).
        let undo_snap = snap.clone();
        snap.spawn_undo(Box::new(move |obj| SnapshotDb::resolve_on(&undo_snap, obj)));
        Ok(SnapshotDb::open(snap)?.with_scan_budget(self.config.asof_scan_budget))
    }

    /// Retrieve an open snapshot by name.
    pub fn snapshot(&self, name: &str) -> Result<SnapshotDb> {
        let snap = self
            .snapshots
            .lock()
            .get(name)
            .cloned()
            .ok_or_else(|| Error::SnapshotNotFound(name.to_string()))?;
        // Re-fetched handles honour the configured scan budget just like
        // freshly created ones.
        Ok(SnapshotDb::open(snap)?.with_scan_budget(self.config.asof_scan_budget))
    }

    /// Drop a snapshot: detach its COW sink and release its log pin.
    pub fn drop_snapshot(&self, name: &str) -> Result<()> {
        let snap = self
            .snapshots
            .lock()
            .remove(name)
            .ok_or_else(|| Error::SnapshotNotFound(name.to_string()))?;
        snap.detach(&self.parts);
        Ok(())
    }

    // ---- crash simulation & restart recovery ---------------------------------------

    /// Tear the instance down as a crash would: volatile state (buffer pool,
    /// lock tables, unflushed log tail) is lost; the file, the durable log
    /// and the clock survive.
    pub fn simulate_crash(self) -> CrashArtifacts {
        // Stop maintenance first: a daemon checkpoint racing the teardown
        // would append log records after the "crash" point. Its page
        // writes end with it: no flush thread outlives its call, so once
        // the daemon is joined no page write can land after this returns.
        if let Some(c) = &self.checkpointer {
            c.stop();
        }
        self.parts.pool.drop_cache();
        self.parts.log.discard_unflushed();
        CrashArtifacts {
            fm: self.parts.pool.file_manager().clone(),
            fm_mem: self.fm_mem.clone(),
            log: self.parts.log.clone(),
            clock: self.clock.clone(),
            config: self.config.clone(),
        }
    }

    /// ARIES restart: analysis, redo, undo (with CLRs), then reopen.
    pub fn recover(artifacts: CrashArtifacts) -> Result<Database> {
        let CrashArtifacts {
            fm,
            fm_mem,
            log,
            clock,
            config,
        } = artifacts;
        log.discard_unflushed();
        // Repeat history before touching any structure (the boot page itself
        // may only exist in the log). Analysis and redo run as ONE pipelined
        // forward scan, with redo hash-partitioned by page across one worker
        // per available core — accounting is bit-identical at every worker
        // count, so the count is the machine's to choose, not a knob.
        let parts = Self::make_parts(fm, log, &config)?;
        let obs = parts.log.obs().clone();
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        // Media hardening: a damaged frame the pass reads ends the log there
        // — the same semantics a real restart applies to a half-written
        // tail, since frame lengths chain and one bad frame unmoors the
        // rest. The cut drops every checkpoint at or past it, so the pass
        // runs again over the shorter log, on a pool that forgets what the
        // failed pass redid. Damage below where restart starts reading is
        // never met, and stays in the log.
        let RestartOutcome {
            analysis,
            redo,
            analysis_us,
            redo_us,
        } = loop {
            match pipelined_restart(&parts.log, &parts.pool, workers) {
                Err(e) if parts.log.cut_at_damage(&e) => parts.pool.drop_cache(),
                outcome => break outcome?,
            }
        };
        obs.record(
            EventKind::RecoveryAnalysis,
            analysis.redo_start.0,
            analysis.records_scanned,
            analysis_us,
        );
        obs.record(
            EventKind::RecoveryRedo,
            analysis.redo_start.0,
            redo.applied,
            redo_us,
        );

        let db = Self::assemble_from_parts(parts, fm_mem, clock, config, false)?;
        // Analysis sees only the ids after the newest checkpoint's begin;
        // older committed ids are still in the retained log, so the floor
        // is the log's high-water mark as well.
        db.txns
            .bump_next_id(analysis.max_txn_id.max(db.parts.log.max_txn_id()));

        // Undo losers in a single merged descending-LSN sweep (CLRs logged
        // per transaction).
        let shared: HashMap<u64, Arc<TxnShared>> = analysis
            .losers
            .iter()
            .map(|l| (l.id.0, db.txns.adopt(l.id, l.last_lsn)))
            .collect();
        let resolver = |obj: ObjectId| db.resolve_access_uncached(obj);
        let mut finished: Vec<Arc<TxnShared>> = Vec::new();
        // Monotonic timebase, not `obs.now_us()`: the report must carry
        // real durations even on a disabled-obs engine.
        let undo_started = rewind_obs::monotonic_us();
        let records_undone = undo_sweep(
            analysis.losers.iter().map(|l| (l.last_lsn, l.id)),
            |lsn| db.parts.log.get_record_ref(lsn),
            |txn, header, view| {
                let sh = &shared[&txn.0];
                // Position the store's chain at this record so CLRs chain
                // correctly even across restarts.
                sh.chain.rewind_to(header.lsn);
                undo_record_view(&EngineStore::new(&db.parts, sh), header, view, &resolver)
            },
            |txn| finished.push(shared[&txn.0].clone()),
        )?;
        // Close every fully-undone loser.
        for sh in &finished {
            db.append_marker(sh, LogPayloadView::End);
            db.txns.finish(sh.id);
        }
        db.parts.log.flush_to(db.parts.log.tail_lsn());
        let undo_us = rewind_obs::monotonic_us().saturating_sub(undo_started);
        obs.record(EventKind::RecoveryUndo, 0, records_undone, undo_us);
        let report = RecoveryReport {
            analysis_us,
            records_scanned: analysis.records_scanned,
            losers: analysis.losers.len() as u64,
            loser_txns: analysis.losers.iter().map(|l| l.id).collect(),
            redo_us,
            records_redone: redo.applied,
            redo_workers: redo.per_worker.len() as u64,
            redone_per_worker: redo.per_worker,
            undo_us,
            records_undone,
        };
        *db.last_recovery.lock() = Some(report);
        db.checkpoint()?;
        Ok(db)
    }
}

impl Drop for Database {
    fn drop(&mut self) {
        // Join the daemon so a checkpoint can't run against parts whose
        // other owners are being torn down. Idempotent with the explicit
        // stop in `simulate_crash`.
        if let Some(c) = &self.checkpointer {
            c.stop();
        }
    }
}

// ---- background checkpoint daemon --------------------------------------------

/// Record a background-maintenance failure without failing the foreground
/// operation. Bounded: with nothing draining the channel, a persistently
/// failing device must not grow memory per checkpoint — only the most
/// recent errors are retained, oldest dropped first.
fn defer_error(errors: &Mutex<Vec<(String, Error)>>, what: &str, e: Error) {
    const MAX_DEFERRED: usize = 64;
    let mut errs = errors.lock();
    if errs.len() >= MAX_DEFERRED {
        errs.remove(0);
    }
    errs.push((what.to_string(), e));
}

/// Truncate log older than `retention_micros` and not needed by crash
/// recovery, active transactions or open snapshots. Free-standing so the
/// checkpoint daemon can run it without a `Database` handle.
///
/// Crash recovery needs the log from the lowest recLSN of two dirty-page
/// tables: the pool's, and the newest durable checkpoint's, which restart
/// redoes from. An incremental checkpoint's table can name a page long
/// since written back, so the pool's table alone is not enough. When the
/// checkpoint's record cannot be read, nothing is cut.
fn enforce_retention_on(
    parts: &EngineParts,
    txns: &TxnManager,
    clock: &SimClock,
    retention_micros: u64,
    snapshots: &Mutex<HashMap<String, Arc<AsOfSnapshot>>>,
) {
    if retention_micros == 0 {
        return;
    }
    let floor_t = clock.now().minus_micros(retention_micros);
    let Some(ck) = parts.log.checkpoint_before_time(floor_t) else {
        return;
    };
    let mut cut = ck.begin_lsn;
    if let Some(l) = txns.oldest_active_first_lsn() {
        cut = cut.min(l);
    }
    let Some(restart_from) = checkpoint_redo_floor(&parts.log) else {
        return;
    };
    cut = cut.min(restart_from);
    for e in parts.pool.dirty_page_table() {
        cut = cut.min(e.rec_lsn);
    }
    for snap in snapshots.lock().values() {
        cut = cut.min(snap.min_needed_lsn());
    }
    parts.log.truncate_before(cut);
}

/// The lowest recLSN in the dirty-page table of the newest durable
/// checkpoint (`Lsn::MAX` for an empty table), or `None` when there is no
/// such checkpoint or its end record does not read back.
fn checkpoint_redo_floor(log: &LogManager) -> Option<Lsn> {
    let flushed = log.flushed_lsn();
    let dir = log.checkpoints();
    let newest = dir.iter().rev().find(|c| c.end_lsn < flushed)?;
    let rec = log.get_record_ref(newest.end_lsn).ok()?;
    let (_, LogPayloadView::CheckpointEnd { tables, .. }) = rec.view().ok()? else {
        return None;
    };
    let body = CheckpointBody::decode(tables).ok()?;
    Some(body.dpt.iter().map(|e| e.rec_lsn).min().unwrap_or(Lsn::MAX))
}

/// Everything the checkpoint daemon needs, cloned out of the database so
/// the thread borrows nothing.
struct MaintenanceCtx {
    parts: Arc<EngineParts>,
    txns: Arc<TxnManager>,
    clock: SimClock,
    interval: u64,
    retention_micros: Arc<AtomicU64>,
    snapshots: Arc<Mutex<HashMap<String, Arc<AsOfSnapshot>>>>,
    errors: Arc<Mutex<Vec<(String, Error)>>>,
}

#[derive(Default)]
struct CkptState {
    /// Checkpoint generation requested by commits.
    kicks: u64,
    /// Generation the daemon has fully processed.
    done: u64,
    shutdown: bool,
}

struct CheckpointerShared {
    state: Mutex<CkptState>,
    cv: Condvar,
}

/// The background checkpoint daemon. Commits *kick* it when a commit
/// crosses [`DbConfig::checkpoint_interval_bytes`]; it responds with a
/// fuzzy *incremental* checkpoint (flushing only pages first dirtied
/// before `tail - interval`) plus retention enforcement, keeping the
/// crash-redo window proportional to the interval while commits never
/// stall behind a pool flush. Kicks issued while a checkpoint runs
/// coalesce: the daemon jumps `done` to the latest requested generation,
/// so a burst of commits costs at most one catch-up checkpoint.
struct Checkpointer {
    shared: Arc<CheckpointerShared>,
    handle: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Checkpointer {
    fn start(ctx: MaintenanceCtx) -> Checkpointer {
        let shared = Arc::new(CheckpointerShared {
            state: Mutex::new(CkptState::default()),
            cv: Condvar::new(),
        });
        let sh = shared.clone();
        let handle = std::thread::spawn(move || loop {
            let target = {
                let mut st = sh.state.lock();
                while st.kicks == st.done && !st.shutdown {
                    sh.cv.wait(&mut st);
                }
                if st.kicks == st.done {
                    return; // shutdown with nothing pending
                }
                st.kicks
            };
            let cutoff = Lsn(ctx.parts.log.tail_lsn().0.saturating_sub(ctx.interval));
            match take_checkpoint_incremental(
                &ctx.parts.log,
                &ctx.txns,
                &ctx.parts.pool,
                &ctx.clock,
                cutoff,
            ) {
                Ok(_) => enforce_retention_on(
                    &ctx.parts,
                    &ctx.txns,
                    &ctx.clock,
                    ctx.retention_micros.load(Ordering::Acquire),
                    &ctx.snapshots,
                ),
                // Same label the synchronous path historically used, so
                // monitoring that matches on it keeps working.
                Err(e) => defer_error(&ctx.errors, "post-commit checkpoint", e),
            }
            let mut st = sh.state.lock();
            st.done = target;
            sh.cv.notify_all();
        });
        Checkpointer {
            shared,
            handle: Mutex::new(Some(handle)),
        }
    }

    /// Request a checkpoint. Never blocks on the work itself.
    fn kick(&self) {
        let mut st = self.shared.state.lock();
        if !st.shutdown {
            st.kicks += 1;
            self.shared.cv.notify_all();
        }
    }

    /// Wait until every kick issued so far has been processed.
    fn quiesce(&self) {
        let mut st = self.shared.state.lock();
        while st.done != st.kicks && !st.shutdown {
            self.shared.cv.wait(&mut st);
        }
    }

    /// Stop and join the daemon (idempotent).
    fn stop(&self) {
        {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
            self.shared.cv.notify_all();
        }
        if let Some(h) = self.handle.lock().take() {
            let _ = h.join();
        }
    }
}
