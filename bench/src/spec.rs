//! The benchmark's specification: the constants of the fixed-work script, the
//! three workloads, and every metric with its unit, direction, bound and
//! meaning. `BENCHMARK.json`, the glossary in the README and the self-test's
//! invariants are all rendered from here.

use crate::json::Json;
use rewind_tpcc::TpccScale;

// ---- the script's constants --------------------------------------------------

/// `run_seconds` of `BENCHMARK.json`. A run never watches a clock: `--seconds`
/// is converted to a whole number of rounds before the run starts, and each
/// workload's `rounds` is the count that fills about this many seconds on the
/// 2-core reference container.
pub const RUN_SECONDS: u64 = 30;
/// Fewest rounds a full-length run may have: every per-operation end-to-end
/// metric needs at least this many samples.
pub const MIN_SAMPLES: usize = 12;
pub const DEFAULT_SEED: u64 = 20120827;

/// Simulated microseconds the bench advances the engine's clock before each
/// transaction; distances into the past are counted in transactions and
/// converted with this.
pub const SIM_US_PER_TXN: u64 = 10_000;
pub const NEAR_TXNS: u64 = 300;
pub const SCAN_TXNS: u64 = 1_500;
pub const FAR_TXNS: u64 = 3_000;
/// 1.5 x the far distance: retained log, resident memory and the flashback
/// harvest stay stationary over the window instead of growing through it.
pub const RETENTION_TXNS: u64 = 4_500;
/// History run during set-up so the far distance exists in the first round.
pub const HISTORY_TXNS: usize = 3_300;
/// A mark is recorded this often during the history, and during the OLTP
/// batch of `asof_beside_oltp` (whose lone terminal is quiesced between any
/// two of its transactions, and whose looper needs a mark `NEAR_TXNS` behind
/// a writer that keeps moving).
pub const MARK_EVERY: usize = 150;
/// Good transactions between the bad batch and the as-of block: with the bad
/// batch itself the newest mark is then `NEAR_TXNS` back.
pub const GOOD_BEFORE_ASOF: usize = 299;
pub const WARM_REPEATS: usize = 10;
/// Districts of warehouse 1 whose stock level every mark records.
pub const MARK_DISTRICTS: u64 = 3;
pub const STOCK_THRESHOLD: i64 = 15;
/// No checkpoint daemon, on any workload. A daemon checkpoint that captures
/// its transaction table while a commit sits between appending its commit
/// record and leaving that table lists the committed transaction as active;
/// an analysis pass seeded from that checkpoint never sees the commit, so a
/// restart then fails ("cannot roll back a committed transaction") and an
/// as-of snapshot's background undo dies, leaving `wait_undo_complete`
/// blocked for ever. With two busy threads on two cores this happened in
/// about one run in ten. Until the engine closes that window, the only
/// checkpoints are the script's own and `recover`'s, all at quiesced points.
pub const CHECKPOINT_INTERVAL_BYTES: u64 = 0;
/// The bad batch damages every customer of this warehouse.
pub const BAD_WAREHOUSE: u64 = 1;

/// About 3 400 data pages after the load (growing by about a third over a
/// run) and 3 000 customers per warehouse, which is also the size of one bad
/// batch.
pub const SCALE: TpccScale = TpccScale {
    warehouses: 2,
    districts_per_warehouse: 10,
    customers_per_district: 300,
    items: 20_000,
    initial_orders_per_district: 300,
};

// ---- workloads -----------------------------------------------------------------

pub struct Workload {
    pub name: &'static str,
    /// One letter, used by the per-layer table's "on" column.
    pub letter: char,
    /// What differs from `DbConfig::default()`, for the glossary.
    pub config: &'static str,
    pub why: &'static str,
    pub buffer_pages: usize,
    pub flush_delay_us: u64,
    pub device_delay_us: u64,
    pub terminals: usize,
    pub fpi_interval: u32,
    /// `DbConfig::asof_scan_budget`: frames a bulk as-of stream may disturb.
    /// At 0, the default, an as-of `scan_all` reads its pages one by one.
    pub asof_scan_budget: usize,
    /// The as-of steps run on a second thread while the terminal runs its
    /// batch, instead of after it.
    pub asof_beside_oltp: bool,
    /// Transactions per terminal in a round's OLTP batch.
    pub oltp_per_terminal: usize,
    /// Rounds in a run of `RUN_SECONDS`.
    pub rounds: usize,
    /// What the `why` says of the traffic, as per-layer readings every traced
    /// run checks: a workload that stops stressing what it names is reported,
    /// not trusted.
    pub claims: &'static [Claim],
}

/// A per-layer metric and the side of a value it must stay on.
pub struct Claim {
    pub metric: &'static str,
    pub at_least: bool,
    pub value: f64,
}

const fn at_least(metric: &'static str, value: f64) -> Claim {
    Claim {
        metric,
        at_least: true,
        value,
    }
}

const fn at_most(metric: &'static str, value: f64) -> Claim {
    Claim {
        metric,
        at_least: false,
        value,
    }
}

impl Workload {
    /// Load-generating threads: the terminals, or one terminal and the looper.
    pub fn generator_threads(&self) -> usize {
        self.terminals + self.asof_beside_oltp as usize
    }

    /// Whole rounds for a run of `seconds`; at least one.
    pub fn rounds_for(&self, seconds: u64) -> usize {
        ((self.rounds as u64 * seconds + RUN_SECONDS / 2) / RUN_SECONDS).max(1) as usize
    }

    /// Transactions in one round, all of them advancing the simulated clock.
    pub fn txns_per_round(&self) -> usize {
        // batch + bad batch + good + the flashback's compensation
        self.oltp_per_terminal * self.terminals + 1 + GOOD_BEFORE_ASOF + 1
    }
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "oltp_resident",
        letter: 'R',
        config: "buffer_pages 32768 (4 x the data at the end of a run), no modeled delay, 1 \
                 terminal, fpi_interval 0",
        why:
            "CPU-bound, data fits the pool: lock table, B-tree descent, pool hit path, log append \
              and commit bookkeeping do all the work, the device none; a hit-path or append gain \
              shows here only",
        buffer_pages: 32_768,
        flush_delay_us: 0,
        device_delay_us: 0,
        terminals: 1,
        fpi_interval: 0,
        asof_scan_budget: 0,
        asof_beside_oltp: false,
        oltp_per_terminal: 1_000,
        rounds: 20,
        claims: &[
            at_least("buffer.pool_over_data", 2.0),
            at_most("buffer.misses_per_txn", 1.0),
            at_most("pagestore.device_busy_share", 0.01),
            at_most("wal.flush_busy_share", 0.01),
        ],
    },
    Workload {
        name: "oltp_spill",
        letter: 'S',
        config: "buffer_pages 1024 (a fifth of the data at the end of a run), asof_scan_budget \
                 128, flush_delay_us 150, MemFileManager::set_device_delay_us(100), 2 terminals",
        why: "Five times the cache, device-bound: miss, evict, write-back and log flush keep a \
              terminal asleep over half its time; as-of scans read in vectored runs; hit-path CPU \
              gains move it least",
        buffer_pages: 1_024,
        flush_delay_us: 150,
        device_delay_us: 100,
        terminals: 2,
        fpi_interval: 0,
        asof_scan_budget: 128,
        asof_beside_oltp: false,
        oltp_per_terminal: 100,
        rounds: 12,
        claims: &[
            at_most("buffer.pool_over_data", 0.25),
            at_least("buffer.misses_per_txn", 5.0),
            at_least("pagestore.device_busy_share", 0.4),
            at_least("pagestore.scan_pages_per_read_op", 1.2),
        ],
    },
    Workload {
        name: "asof_beside_oltp",
        letter: 'A',
        config: "as oltp_resident but fpi_interval 16, and the as-of and scan steps run on a \
                 second thread while the terminal runs its batch, which is sized to outlast them",
        why: "Readers of the past share pool, log cache and modification gate with a live writer, \
              and full-page images trade log bytes for short undo chains; a gain for one side \
              that costs the other shows here",
        buffer_pages: 32_768,
        flush_delay_us: 0,
        device_delay_us: 0,
        terminals: 1,
        fpi_interval: 16,
        asof_scan_budget: 0,
        asof_beside_oltp: true,
        oltp_per_terminal: 2_100,
        rounds: 13,
        claims: &[
            at_least("bench.asof_beside_share", 0.75),
            at_least("recovery.fpi_restores_per_page", 0.05),
            at_most("buffer.misses_per_txn", 1.0),
        ],
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

// ---- metrics ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `b` is than `a`, as a share of `a`; negative when better.
    pub fn worsening(self, a: f64, b: f64) -> f64 {
        if a == 0.0 {
            return 0.0;
        }
        match self {
            Better::Lower => (b - a) / a,
            Better::Higher => (a - b) / a,
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse before
    /// a change counts as a regression.
    pub bound: f64,
    pub definition: &'static str,
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 10] = [
    EndToEnd {
        name: "txn_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        definition: "finished transactions (commits + intentional rollbacks) per second of OLTP \
                     batch time, summed over terminals, median over rounds",
    },
    EndToEnd {
        name: "new_order_us_p50",
        unit: "us",
        better: Lower,
        bound: 0.25,
        definition: "NewOrder, begin() until commit/rollback returned, retries included: median \
                     over rounds of the round's median",
    },
    EndToEnd {
        name: "payment_us_p50",
        unit: "us",
        better: Lower,
        bound: 0.25,
        definition: "Payment, begin() until commit returned: median over rounds of the round's \
                     median",
    },
    EndToEnd {
        name: "log_bytes_per_txn",
        unit: "B",
        better: Lower,
        bound: 0.05,
        definition: "log_io().log_bytes_written over the OLTP batches / finished transactions: \
                     the paper's logging-overhead axis (Figs. 5-6)",
    },
    EndToEnd {
        name: "asof_near_ms_p50",
        unit: "ms",
        better: Lower,
        bound: 0.20,
        definition: "create_snapshot_asof + first cold stock_level_asof, about 300 transactions \
                     back, median over cycles",
    },
    EndToEnd {
        name: "asof_far_ms_p50",
        unit: "ms",
        better: Lower,
        bound: 0.20,
        definition: "same, about 3 000 transactions back (the Figs. 7-11 distance axis)",
    },
    EndToEnd {
        name: "asof_scan_rows_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.20,
        definition: "rows / time of a cold as-of scan_all(customer) on a fresh snapshot about \
                     1 500 transactions back, creation included, median over cycles",
    },
    EndToEnd {
        name: "flashback_ms_p50",
        unit: "ms",
        better: Lower,
        bound: 0.20,
        definition: "rewind_repair::flashback of one 3 000-row bad batch under \
                     ConflictPolicy::Skip, median over rounds",
    },
    EndToEnd {
        name: "restart_ms_p50",
        unit: "ms",
        better: Lower,
        bound: 0.20,
        definition: "simulate_crash() + Database::recover() with one loser in flight, median \
                     over rounds",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        definition: "create + schema + load + history + checkpoint + one unmeasured round",
    },
];

/// How a per-layer metric is taken.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// A bench-side span around a public call.
    Span,
    /// Delta of the engine's public counters or reports around a step.
    Count,
    /// Delta of an obs histogram, or an obs event's duration.
    Hist,
    /// After the window, a timed loop over one layer's public function.
    Probe,
}

impl Kind {
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Span => "span",
            Kind::Count => "count",
            Kind::Hist => "hist",
            Kind::Probe => "probe",
        }
    }
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
    pub measured_as: &'static str,
    /// End-to-end metrics this one should move, comma-separated.
    pub moves: &'static str,
    /// Workload letters on which it should, comma-separated.
    pub on: &'static str,
    pub note: &'static str,
}

macro_rules! layer {
    ($name:literal, $unit:literal, $better:ident, $kind:ident, $as:literal, $moves:literal, $on:literal, $note:literal) => {
        PerLayer {
            name: $name,
            unit: $unit,
            better: $better,
            kind: Kind::$kind,
            measured_as: $as,
            moves: $moves,
            on: $on,
            note: $note,
        }
    };
}

pub const PER_LAYER: [PerLayer; 85] = [
    layer!("tpcc.new_order_us_p95", "us", Lower, Span, "NewOrder begin -> commit, median over rounds of the round's p95", "new_order_us_p50", "R,S,A", "demoted from end to end: its spread over 10 runs reached 37 % on oltp_spill (90 samples a round) and 19 % on oltp_resident"),
    layer!("tpcc.new_order_us_p99", "us", Lower, Span, "NewOrder begin -> commit, p99 over the window", "new_order_us_p50", "R,S,A", "the tail; too noisy on 2 cores to bound"),
    layer!("tpcc.payment_us_p95", "us", Lower, Span, "Payment, p95", "payment_us_p50", "R,S,A", "same"),
    layer!("tpcc.order_status_us_p50", "us", Lower, Span, "OrderStatus median", "txn_per_s", "R,S", ""),
    layer!("tpcc.delivery_us_p50", "us", Lower, Span, "Delivery median", "txn_per_s", "R,S", "4 % of the mix but about 40 % of its time on R"),
    layer!("tpcc.stock_level_us_p50", "us", Lower, Span, "StockLevel median", "txn_per_s", "R,S", ""),
    layer!("tpcc.retries_per_ktxn", "count", Lower, Count, "deadlock/timeout retries per 1 000 finished", "new_order_us_p50", "S", "terminals are bound to home warehouses, so expect about 0"),
    layer!("tpcc.load_rows_per_s", "1/s", Higher, Span, "rows / time of load_initial", "setup_s", "R,S,A", ""),
    layer!("core.txn_body_us_p50", "us", Lower, Span, "begin() until the last DML call returns", "new_order_us_p50,txn_per_s", "R", ""),
    layer!("core.commit_us_p50", "us", Lower, Span, "Database::commit median", "payment_us_p50", "S", "flush-bound on S; small on R"),
    layer!("core.commit_us_p99", "us", Lower, Span, "Database::commit p99", "new_order_us_p50", "S", "through tpcc.new_order_us_p95"),
    layer!("core.rollback_us_p50", "us", Lower, Span, "Database::rollback of a poisoned NewOrder", "txn_per_s", "R", "1 % of NewOrders"),
    layer!("core.checkpoint_ms_p50", "ms", Lower, Span, "the script's checkpoint(), once a round", "restart_ms_p50", "R,S,A", "it bounds the next restart's redo window"),
    layer!("core.mix_us_p99", "us", Lower, Span, "all transaction types, p99", "new_order_us_p50", "R,S,A", "informational: the number the rejected first attempt bounded"),
    layer!("core.unattributed_share", "ratio", Lower, Count, "1 - (pool accesses x buffer.hit_ns + misses x buffer.miss_ns + device stalls x pagestore.device_stall_us + log records x wal.append_ns + lock requests x txn.lock_acquire_ns + flush stall) / OLTP batch time; lock requests are estimated as two per log record", "txn_per_s", "R", "what spans inside the engine must still explain (ROADMAP item A wants it under 0.10)"),
    layer!("core.peak_rss_mib", "MiB", Lower, Count, "VmHWM when the run ends", "txn_per_s", "R,S,A", "space; moves with wal.retained_log_mib, and reaches txn_per_s through fresh-memory faults"),
    layer!("txn.lock_acquire_ns", "ns", Lower, Probe, "LockManager::acquire + amortised release_all, fresh instance", "txn_per_s", "R", "about 0 on S"),
    layer!("access.get_ns", "ns", Lower, Probe, "Database::get of a resident customer row", "payment_us_p50", "R", ""),
    layer!("access.pool_reads_per_get", "count", Lower, Probe, "pool accesses per Database::get", "payment_us_p50", "R", ""),
    layer!("access.scan_rows_per_s", "1/s", Higher, Probe, "live scan_all(customer)", "txn_per_s", "R", "through Delivery and StockLevel"),
    layer!("buffer.pool_over_data", "ratio", Higher, Count, "pool frames / allocated data pages when the window ends", "txn_per_s", "S", "the stated sizes: the data fits the pool several times on R and A, and is about five pools on S"),
    layer!("buffer.hit_ratio", "ratio", Higher, Count, "hits / (hits + misses) over the OLTP batches", "txn_per_s", "S", ""),
    layer!("buffer.hits_per_txn", "count", Lower, Count, "pool hits per finished transaction", "txn_per_s", "R", ""),
    layer!("buffer.misses_per_txn", "count", Lower, Count, "pool misses per finished transaction", "txn_per_s", "S", "small on R: only what each round's restart left cold"),
    layer!("buffer.evictions_per_txn", "count", Lower, Count, "evictions per finished transaction", "txn_per_s", "S", ""),
    layer!("buffer.map_contended", "count", Lower, Count, "shard-lock acquisitions not granted at once, whole window", "new_order_us_p50", "S,A", ""),
    layer!("buffer.hit_ns", "ns", Lower, Probe, "BufferPool::read_page of a resident page", "txn_per_s", "R", "ROADMAP item B: 0.61-0.70 x the mutex pool; about 0 on S"),
    layer!("buffer.miss_ns", "ns", Lower, Probe, "read_page after flush_all + drop_cache, device delay 0", "txn_per_s,asof_scan_rows_per_s", "S", ""),
    layer!("pagestore.page_reads_per_txn", "count", Lower, Count, "data_io().page_reads per finished transaction", "txn_per_s", "S", ""),
    layer!("pagestore.page_writes_per_txn", "count", Lower, Count, "data_io().page_writes per finished transaction", "txn_per_s", "S", ""),
    layer!("pagestore.scan_pages_per_read_op", "count", Higher, Count, "page_reads / vectored_read_ops over the as-of scans", "asof_scan_rows_per_s", "S", "0 on R and A: at asof_scan_budget 0, the default, an as-of scan_all reads page by page"),
    layer!("pagestore.redo_pages_per_read_op", "count", Higher, Count, "page_reads / vectored_read_ops over the restarts: redo's read-ahead of each batch's cold pages", "restart_ms_p50", "R,S,A", "the pool dies with the crash, so every page redo touches is read"),
    layer!("pagestore.device_stall_us", "us", Lower, Probe, "one modeled device operation: thread::sleep of the workload's device delay, mean of 200", "txn_per_s", "S", "0 on R and A; about 160 for the 100 asked for"),
    layer!("pagestore.device_busy_share", "ratio", Lower, Count, "(page_reads + page_writes over the OLTP batches) x pagestore.device_stall_us / (batch time x terminals); inside a batch every device operation is one page", "txn_per_s", "S", "with wal.flush_busy_share, the share of a terminal's time that is sleep"),
    layer!("pagestore.pages_per_write_op", "count", Higher, Count, "page_writes / batched_write_ops over the window", "txn_per_s", "S", ""),
    layer!("pagestore.io_retries", "count", Lower, Count, "data + log io_retries over the window", "txn_per_s", "R,S,A", "expect 0; anything else is a failure share"),
    layer!("pagestore.side_pages_per_snapshot", "count", Lower, Count, "SnapshotDb::side_pages() at drop, mean", "asof_near_ms_p50,asof_far_ms_p50", "R,S,A", "also memory"),
    layer!("wal.flushes_per_commit", "ratio", Lower, Count, "log_flushes / (write commits + rollbacks) over the OLTP batches", "txn_per_s,payment_us_p50", "S", "about 1.0 everywhere: a flush covers only the requests queued before its leader started, so sharing one takes three concurrent committers and no workload has more than two (known gap)"),
    layer!("wal.flush_stall_us_p50", "us", Lower, Hist, "flush_stall_us median over the window", "payment_us_p50", "S", ""),
    layer!("wal.flush_busy_share", "ratio", Lower, Hist, "flush_stall_us sum over the OLTP batches / (batch time x terminals)", "txn_per_s", "S", ""),
    layer!("wal.retained_log_mib", "MiB", Lower, Count, "stats().log_retained_bytes when the window ends", "flashback_ms_p50,restart_ms_p50", "R,S,A", "the script's number, not the engine's: after a crash enforce_retention cuts nothing, so the script cuts the log itself once a round (README, finding 1); demoted from end to end for that reason"),
    layer!("wal.append_ns", "ns", Lower, Probe, "LogManager::append of a 200 B update, standalone instance", "txn_per_s", "R", ""),
    layer!("wal.get_record_ns", "ns", Lower, Probe, "get_record_ref at LSNs sampled over the retained log", "asof_far_ms_p50,flashback_ms_p50", "R", ""),
    layer!("wal.log_read_ios_per_query", "count", Lower, Count, "log_io().log_read_ios per as-of cycle", "asof_far_ms_p50", "R,S,A", ""),
    layer!("wal.log_cache_hit_ratio", "ratio", Higher, Count, "log_cache_hits / (hits + log_read_ios) over the as-of cycles", "asof_far_ms_p50", "R,S,A", ""),
    layer!("wal.scan_mib_per_s", "MiB/s", Higher, Probe, "scan_views over the retained log", "flashback_ms_p50,restart_ms_p50", "R,S,A", "the harvest and the restart scan"),
    layer!("wal.split_search_us", "us", Lower, Probe, "find_split_lsn at the near and far marks, mean", "asof_near_ms_p50", "R,S,A", ""),
    layer!("recovery.crash_teardown_ms", "ms", Lower, Span, "simulate_crash(), median", "restart_ms_p50", "R,S,A", ""),
    layer!("recovery.recover_ms", "ms", Lower, Span, "Database::recover(), median", "restart_ms_p50", "R,S,A", ""),
    layer!("recovery.analysis_ms", "ms", Lower, Count, "RecoveryReport.analysis_us, median", "restart_ms_p50", "R,S,A", ""),
    layer!("recovery.redo_ms", "ms", Lower, Count, "RecoveryReport.redo_us, median", "restart_ms_p50", "R", "ROADMAP item B: 4 workers ran 0.89 x of 1"),
    layer!("recovery.undo_ms", "ms", Lower, Count, "RecoveryReport.undo_us, median", "restart_ms_p50", "R,S,A", ""),
    layer!("recovery.unattributed_ms", "ms", Lower, Count, "recover - max(analysis, redo) - undo, median", "restart_ms_p50", "R,S,A", "over half of restart wall at the last re-anchor"),
    layer!("recovery.records_scanned", "count", Lower, Count, "RecoveryReport.records_scanned, median over rounds", "restart_ms_p50", "R", "exact on R"),
    layer!("recovery.records_redone", "count", Lower, Count, "RecoveryReport.records_redone, median", "restart_ms_p50", "R", "exact on R"),
    layer!("recovery.records_undone", "count", Lower, Count, "RecoveryReport.records_undone, median", "restart_ms_p50", "R", "exact on R"),
    layer!("recovery.redo_worker_skew", "ratio", Lower, Count, "max / mean of redone_per_worker, median", "restart_ms_p50", "R", "through recovery.redo_ms"),
    layer!("recovery.prepare_page_us_p50", "us", Lower, Hist, "asof_prepare_us median over the window", "asof_far_ms_p50", "R,A", "the FPI path on A, long chains elsewhere"),
    layer!("recovery.records_undone_per_page", "count", Lower, Count, "records_undone / pages_prepared over the as-of snapshots", "asof_far_ms_p50", "R", "small on A"),
    layer!("recovery.fpi_restores_per_page", "count", Higher, Count, "fpi_restores / pages_prepared over the as-of snapshots", "asof_far_ms_p50", "A", "0 elsewhere"),
    layer!("snapshot.create_ms_p50", "ms", Lower, Span, "create_snapshot_asof, median over all cycles", "asof_near_ms_p50", "R,S,A", "creation dominates near"),
    layer!("snapshot.first_query_ms_p50.near", "ms", Lower, Span, "first cold stock_level_asof, near", "asof_near_ms_p50", "R,S,A", ""),
    layer!("snapshot.first_query_ms_p50.far", "ms", Lower, Span, "same, far", "asof_far_ms_p50", "R,S,A", ""),
    layer!("snapshot.warm_query_us_p50", "us", Lower, Span, "mean of the 10 warm repeats, median over snapshots", "asof_near_ms_p50", "R,S,A", "the side-file hit path; us-scale, so no end-to-end metric of its own"),
    layer!("snapshot.side_hits_per_warm_query", "count", Lower, Count, "side-file hits per warm query", "asof_near_ms_p50", "R,S,A", "through snapshot.warm_query_us_p50"),
    layer!("snapshot.pages_prepared_per_query", "count", Lower, Count, "pages_prepared by a first query, mean", "asof_near_ms_p50,asof_far_ms_p50", "R,S,A", ""),
    layer!("snapshot.scan_pages_prepared", "count", Lower, Count, "pages_prepared by one cold scan, mean", "asof_scan_rows_per_s", "R,S,A", ""),
    layer!("snapshot.undo_wait_ms_p50", "ms", Lower, Span, "wait_undo_complete after the queries", "txn_per_s", "A", "background undo beside the writer"),
    layer!("snapshot.drop_ms_p50", "ms", Lower, Span, "drop_snapshot", "new_order_us_p50", "A", ""),
    layer!("repair.harvest_ms", "ms", Lower, Hist, "RepairHarvest event duration, median", "flashback_ms_p50", "R,S,A", ""),
    layer!("repair.plan_ms", "ms", Lower, Hist, "RepairDiff event duration (witness reads, diff, plan), median", "flashback_ms_p50", "R,S,A", ""),
    layer!("repair.apply_ms", "ms", Lower, Hist, "RepairApply event duration, median", "flashback_ms_p50", "R,S,A", ""),
    layer!("repair.harvest_mib_per_s", "MiB/s", Higher, Count, "retained log / harvest time, median", "flashback_ms_p50", "R,S,A", "ROADMAP small item (e)"),
    layer!("repair.keys_examined", "count", Lower, Count, "RepairReport.keys_examined, median", "flashback_ms_p50", "R", "exact on R"),
    layer!("repair.rows_applied", "count", Lower, Count, "RepairReport.applied, median", "flashback_ms_p50", "R", "exact on R"),
    layer!("repair.conflicts_skipped", "count", Lower, Count, "RepairReport.skipped_conflicts.len(), median", "flashback_ms_p50", "R", "exact on R"),
    layer!("obs.trace_overhead_pct", "%", Lower, Span, "NewOrder and Payment medians of the traced transactions over those of the untraced ones of the traced run, weighted 45 : 43, minus one (a terminal switches its tracer every 50 transactions, so both sides share every second of the window)", "txn_per_s", "R", "validity of every span above"),
    layer!("obs.trace_overhead_iqr_pct", "%", Lower, Span, "interquartile distance of the same ratio taken round by round", "txn_per_s", "R", "the overhead is resolved only where it exceeds this"),
    layer!("bench.cpu_steal_pct", "%", Lower, Count, "steal share of /proc/stat over the window", "txn_per_s", "R,S,A", "explains a bad run; sets \"noisy\""),
    layer!("bench.calib_spread_pct", "%", Lower, Probe, "(max - min) / min of a fixed pure-CPU loop timed once a round", "txn_per_s", "R,S,A", "same"),
    layer!("bench.minor_faults_per_txn", "count", Lower, Count, "minflt delta of /proc/self/stat over the OLTP batches / transactions", "txn_per_s", "R,S,A", "fresh-memory cost behind txn_per_s noise on a microVM"),
    layer!("bench.window_s", "s", Lower, Span, "wall time of the timed window", "txn_per_s", "R,S,A", "run length check: 25-35 s on the reference container"),
    layer!("bench.asof_beside_share", "ratio", Higher, Span, "share of the looper's as-of cycles during which the terminal was still in its batch", "txn_per_s,asof_near_ms_p50", "A", "1 when every as-of step ran beside the writer; 0 on R and S, which have no looper"),
    layer!("bench.samples_min", "count", Higher, Count, "fewest samples behind any per-operation end-to-end metric", "flashback_ms_p50,restart_ms_p50", "R,S,A", "must be at least 12"),
    layer!("bench.generator_threads", "count", Lower, Count, "load-generating threads, asserted <= nproc at start", "txn_per_s", "R,S,A", ""),
];

// ---- renderings -------------------------------------------------------------------

/// The one command, as `BENCHMARK.json` carries it.
pub const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "bench/Cargo.toml",
    "--bin",
    "e2ebench",
];

pub fn benchmark_json() -> String {
    let metric = |name: &str, unit: &str, better: Better| {
        vec![
            ("name".to_string(), Json::Str(name.into())),
            ("unit".to_string(), Json::Str(unit.into())),
            ("better".to_string(), Json::Str(better.as_str().into())),
        ]
    };
    let mut command: Vec<Json> = COMMAND.iter().map(|s| Json::Str((*s).into())).collect();
    command.push(Json::Str("--".into()));
    Json::obj([
        ("command", Json::Arr(command)),
        ("paths", Json::Arr(vec![Json::Str("bench".into())])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("name", Json::Str(w.name.into())),
                            ("why", Json::Str(one_line(w.why))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        let mut f = metric(m.name, m.unit, m.better);
                        f.push(("bound".to_string(), Json::Num(m.bound)));
                        Json::Obj(f)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| Json::Obj(metric(m.name, m.unit, m.better)))
                    .collect(),
            ),
        ),
    ])
    .pretty()
}

/// Collapse the source's line continuations into single spaces.
pub fn one_line(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// The workload, end-to-end and per-layer tables, as Markdown.
pub fn glossary() -> String {
    let mut out = String::new();
    out.push_str("### Workloads\n\n| name | configuration (everything else `DbConfig::default()`) | rounds | why it exists |\n|---|---|---|---|\n");
    for w in &WORKLOADS {
        out.push_str(&format!(
            "| `{}` ({}) | {} | {} x ({} OLTP + {} other transactions) | {} |\n",
            w.name,
            w.letter,
            one_line(w.config),
            w.rounds,
            w.oltp_per_terminal * w.terminals,
            w.txns_per_round() - w.oltp_per_terminal * w.terminals,
            one_line(w.why)
        ));
    }
    out.push_str("\n### End-to-end metrics (untraced run; every workload reports all ten)\n\n| name | unit | better | bound | definition |\n|---|---|---|---|---|\n");
    for m in &END_TO_END {
        out.push_str(&format!(
            "| `{}` | {} | {} | {:.2} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            one_line(m.definition)
        ));
    }
    out.push_str("\n### Per-layer metrics (traced run, `--trace 1`; no bound)\n\n| name | unit | kind | measured as | should move | on | note |\n|---|---|---|---|---|---|---|\n");
    for m in &PER_LAYER {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.kind.as_str(),
            one_line(m.measured_as),
            m.moves
                .split(',')
                .map(|e| format!("`{e}`"))
                .collect::<Vec<_>>()
                .join(", "),
            m.on,
            one_line(m.note)
        ));
    }
    out
}
