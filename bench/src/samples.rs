//! What a run records: samples behind the metrics, counter deltas, and the
//! count of operations attempted and failed.

use crate::gen::{TxnKind, TXN_KINDS};
use crate::stats::median;
use rewind_obs::HistogramSnapshot;

/// Counter deltas around one OLTP batch.
#[derive(Clone, Copy, Default)]
pub struct BatchSample {
    pub txns: u64,
    pub wall_s: f64,
    /// What spans cost this batch's transactions; traced runs only.
    pub trace_overhead_pct: Option<f64>,
    pub log_bytes: u64,
    pub log_flushes: u64,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub page_reads: u64,
    pub page_writes: u64,
    pub minor_faults: u64,
    pub flush_stall_us: u64,
    /// This batch's own latency quantiles: the end-to-end latency metrics are
    /// medians of these over the rounds, so a disturbed round moves them as
    /// little as it moves `txn_per_s`.
    pub new_order_us_p50: f64,
    pub new_order_us_p95: f64,
    pub payment_us_p50: f64,
}

/// The two types that are 88 % of the mix and cost about the same every time:
/// what tracing adds is read off them.
pub const SIDE_KINDS: [TxnKind; 2] = [TxnKind::NewOrder, TxnKind::Payment];
const SIDE_WEIGHTS: [f64; 2] = [45.0, 43.0];

/// Latencies of `SIDE_KINDS`, untraced (0) and traced (1).
pub type BySide = [[Vec<f64>; 2]; 2];

/// What recording spans adds to a transaction, in percent: the traced
/// medians over the untraced ones, each type weighted by its share of the mix.
pub fn trace_overhead_pct(sides: &BySide) -> Option<f64> {
    let cost = |side: &[Vec<f64>; 2]| -> Option<f64> {
        side.iter()
            .zip(SIDE_WEIGHTS)
            .map(|(lat, weight)| (!lat.is_empty()).then(|| weight * median(lat)))
            .sum()
    };
    Some(100.0 * (cost(&sides[1])? / cost(&sides[0])? - 1.0))
}

/// What one terminal saw.
#[derive(Default)]
pub struct TerminalSamples {
    pub lat_us: [Vec<f64>; TXN_KINDS],
    /// In a traced run, the latencies of `SIDE_KINDS` once more, by side.
    pub by_side: Option<BySide>,
    pub retries: u64,
    /// Write commits plus rollbacks: the completions that must flush.
    pub flushing_completions: u64,
}

impl TerminalSamples {
    pub fn absorb(&mut self, o: TerminalSamples) {
        for (all, one) in self.lat_us.iter_mut().zip(o.lat_us) {
            all.extend(one);
        }
        if let Some(theirs) = o.by_side {
            let mine = self.by_side.get_or_insert_with(Default::default);
            for (all, one) in mine.iter_mut().flatten().zip(theirs.into_iter().flatten()) {
                all.extend(one);
            }
        }
        self.retries += o.retries;
        self.flushing_completions += o.flushing_completions;
    }
}

/// What the as-of steps saw.
#[derive(Default)]
pub struct AsofSamples {
    pub near_ms: Vec<f64>,
    pub far_ms: Vec<f64>,
    pub scan_rows_per_s: Vec<f64>,
    pub warm_us: Vec<f64>,
    pub cycles: u64,
    pub log_read_ios: u64,
    pub log_cache_hits: u64,
    pub side_pages: u64,
    pub first_query_pages: u64,
    pub pages_prepared: u64,
    pub records_undone: u64,
    pub fpi_restores: u64,
    pub warm_side_hits: u64,
    pub warm_queries: u64,
    pub scans: u64,
    pub scan_pages_prepared: u64,
    pub scan_page_reads: u64,
    pub scan_read_ops: u64,
}

/// Operations attempted and failed; a wrong answer or an `Err` is a failure.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the result file.
    pub errors: Vec<String>,
}

impl Ops {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// Count one operation, failed unless `check` passed.
    pub fn check(&mut self, what: &str, check: std::result::Result<(), String>) {
        match check {
            Ok(()) => self.ok(),
            Err(e) => self.fail(format!("{what}: {e}")),
        }
    }

    pub fn absorb(&mut self, o: Ops) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        for e in o.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }
}

#[derive(Default)]
pub struct RestartSamples {
    pub restart_ms: Vec<f64>,
    pub analysis_ms: Vec<f64>,
    pub redo_ms: Vec<f64>,
    pub undo_ms: Vec<f64>,
    pub unattributed_ms: Vec<f64>,
    pub records_scanned: Vec<f64>,
    pub records_redone: Vec<f64>,
    pub records_undone: Vec<f64>,
    pub worker_skew: Vec<f64>,
    /// Device reads of the restarts, and the vectored operations among them.
    pub page_reads: u64,
    pub read_ops: u64,
}

#[derive(Default)]
pub struct RepairSamples {
    pub flashback_ms: Vec<f64>,
    pub harvest_ms: Vec<f64>,
    pub plan_ms: Vec<f64>,
    pub apply_ms: Vec<f64>,
    pub harvest_mib_per_s: Vec<f64>,
    pub keys_examined: Vec<f64>,
    pub rows_applied: Vec<f64>,
    pub conflicts_skipped: Vec<f64>,
}

/// Everything the timed window recorded.
#[derive(Default)]
pub struct Samples {
    pub ops: Ops,
    pub terminals: TerminalSamples,
    pub batches: Vec<BatchSample>,
    pub asof: AsofSamples,
    pub restart: RestartSamples,
    pub repair: RepairSamples,
    pub calib_ns: Vec<f64>,
    pub map_contended: u64,
    /// `asof_beside_oltp`: seconds the looper's cycles took, and how many of
    /// them the terminal's batch was still running.
    pub looper_s: f64,
    pub looper_beside_s: f64,
}

/// What set-up and the whole run report besides the samples.
pub struct RunReport {
    pub samples: Samples,
    pub setup_s: f64,
    pub load_rows_per_s: f64,
    pub window_s: f64,
    pub steal_pct: f64,
    pub retained_log_mib: f64,
    /// Allocated data pages when the window ends.
    pub data_pages: u64,
    pub io_retries: u64,
    pub window_page_writes: u64,
    pub window_write_ops: u64,
    pub flush_stall: HistogramSnapshot,
    pub asof_prepare: HistogramSnapshot,
    pub rounds: usize,
}
