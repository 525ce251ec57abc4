//! Storage-device models and I/O accounting.
//!
//! The paper's evaluation (§6) runs the same experiments against SAS spinning
//! disks and SLC SSDs and shows that the *shape* of each result is governed by
//! two device terms: random-read latency (log stalls while walking per-page
//! chains) and sequential bandwidth (restore, log writes). We reproduce those
//! terms explicitly: every file/log manager counts its I/Os in an [`IoStats`],
//! and a [`MediaModel`] converts a count delta into modeled elapsed time.
//! Benchmarks report modeled time for the paper's device classes alongside
//! actually-measured CPU time.

use crate::stripe::StripedCounters;
use std::fmt;

/// Parameters of a storage device class.
#[derive(Clone, Debug, PartialEq)]
pub struct MediaModel {
    /// Human-readable name used in benchmark output.
    pub name: &'static str,
    /// Latency of one random (page-sized) read, in microseconds.
    pub random_read_us: u64,
    /// Latency of one random (page-sized) write, in microseconds.
    pub random_write_us: u64,
    /// Sequential read bandwidth in MiB/s.
    pub seq_read_mibps: u64,
    /// Sequential write bandwidth in MiB/s.
    pub seq_write_mibps: u64,
}

impl MediaModel {
    /// 10K RPM SAS spinning disk, as in the paper's testbed (8×146 GB 2.5"
    /// 10K SAS). Dominated by ~5 ms seeks; ~100 MB/s sequential, which is the
    /// figure the paper quotes for sustained log bandwidth.
    pub const fn sas_hdd() -> Self {
        MediaModel {
            name: "sas-10k",
            random_read_us: 5_000,
            random_write_us: 5_000,
            seq_read_mibps: 100,
            seq_write_mibps: 100,
        }
    }

    /// SLC SSD, as in the paper's testbed (8×32 GB SLC). ~100 µs random
    /// reads, a few hundred MiB/s sequential.
    pub const fn ssd() -> Self {
        MediaModel {
            name: "ssd-slc",
            random_read_us: 100,
            random_write_us: 120,
            seq_read_mibps: 250,
            seq_write_mibps: 200,
        }
    }

    /// An idealized infinitely fast device; useful to isolate CPU costs in
    /// ablation benchmarks.
    pub const fn instant() -> Self {
        MediaModel {
            name: "instant",
            random_read_us: 0,
            random_write_us: 0,
            seq_read_mibps: u64::MAX,
            seq_write_mibps: u64::MAX,
        }
    }

    /// Modeled time for `n` random page reads, in microseconds.
    #[inline]
    pub fn random_read_time_us(&self, n: u64) -> u64 {
        n.saturating_mul(self.random_read_us)
    }

    /// Modeled time for `n` random page writes, in microseconds.
    #[inline]
    pub fn random_write_time_us(&self, n: u64) -> u64 {
        n.saturating_mul(self.random_write_us)
    }

    /// Modeled time to sequentially read `bytes`, in microseconds.
    #[inline]
    pub fn seq_read_time_us(&self, bytes: u64) -> u64 {
        if self.seq_read_mibps == u64::MAX {
            0
        } else {
            bytes.saturating_mul(1_000_000) / (self.seq_read_mibps * 1024 * 1024)
        }
    }

    /// Modeled time to sequentially write `bytes`, in microseconds.
    #[inline]
    pub fn seq_write_time_us(&self, bytes: u64) -> u64 {
        if self.seq_write_mibps == u64::MAX {
            0
        } else {
            bytes.saturating_mul(1_000_000) / (self.seq_write_mibps * 1024 * 1024)
        }
    }
}

// Counter indices into the striped array (see [`StripedCounters`]).
const IO_PAGE_READS: usize = 0;
const IO_PAGE_WRITES: usize = 1;
const IO_LOG_READ_IOS: usize = 2;
const IO_LOG_CACHE_HITS: usize = 3;
const IO_LOG_BYTES_WRITTEN: usize = 4;
const IO_LOG_BYTES_SCANNED: usize = 5;
const IO_LOG_FLUSHES: usize = 6;
const IO_SEQ_DATA_BYTES: usize = 7;
const IO_PAGE_SALVAGES: usize = 8;
const IO_CORRUPTIONS_DETECTED: usize = 9;
const IO_RETRIES: usize = 10;
const IO_VECTORED_READ_OPS: usize = 11;
const IO_BATCHED_WRITE_OPS: usize = 12;
const IO_COUNTERS: usize = 13;

/// Thread-safe I/O counters. One instance is shared by a file manager or log
/// manager and everything that wants to observe it.
///
/// Internally the counters are a [`StripedCounters`]: each thread increments
/// its own cache-padded stripe, so the hot `fetch_add`s on the log read path
/// no longer contend on a single line. [`IoStats::snapshot`] sums
/// the stripes, so every recorded event appears in the aggregate exactly
/// once — the totals the paper's Figs. 5–11 are computed from are
/// bit-identical to the previous single-atomic accounting.
#[derive(Debug, Default)]
pub struct IoStats {
    counters: StripedCounters<IO_COUNTERS>,
}

impl IoStats {
    /// Fresh, zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    // `snapshot()` is generated by `io_snapshot_views!` below, from the
    // same field list as `delta()` and `fields()`.

    /// Add `n` random page reads.
    #[inline]
    pub fn add_page_reads(&self, n: u64) {
        self.counters.add(IO_PAGE_READS, n);
    }

    /// Add `n` random page writes.
    #[inline]
    pub fn add_page_writes(&self, n: u64) {
        self.counters.add(IO_PAGE_WRITES, n);
    }

    /// Record a log random-read miss (a media I/O).
    #[inline]
    pub fn add_log_read_io(&self) {
        self.counters.incr(IO_LOG_READ_IOS);
    }

    /// Record a log-cache hit.
    #[inline]
    pub fn add_log_cache_hit(&self) {
        self.counters.incr(IO_LOG_CACHE_HITS);
    }

    /// Record `n` bytes appended to the log.
    #[inline]
    pub fn add_log_bytes_written(&self, n: u64) {
        self.counters.add(IO_LOG_BYTES_WRITTEN, n);
    }

    /// Record one physical log flush (a device write barrier). Group commit
    /// coalesces many committers' requests into one of these; the ratio
    /// flushes / commits is the quantity `tests/group_commit.rs` gates on. Flushes are
    /// not part of modeled time — the bytes they move already are.
    #[inline]
    pub fn add_log_flush(&self) {
        self.counters.incr(IO_LOG_FLUSHES);
    }

    /// Record `n` bytes scanned sequentially from the log.
    #[inline]
    pub fn add_log_bytes_scanned(&self, n: u64) {
        self.counters.add(IO_LOG_BYTES_SCANNED, n);
    }

    /// Record `n` bytes of sequential data-file movement (backup/restore).
    #[inline]
    pub fn add_seq_data_bytes(&self, n: u64) {
        self.counters.add(IO_SEQ_DATA_BYTES, n);
    }

    /// Record a successful page salvage: a checksum-bad or torn page was
    /// re-materialized from its per-page log chain instead of failing the
    /// read. The log reads the replay performs are charged separately.
    #[inline]
    pub fn add_page_salvage(&self) {
        self.counters.incr(IO_PAGE_SALVAGES);
    }

    /// Record one detected media corruption (bad log frame CRC, page
    /// checksum/torn mismatch) — counted at detection
    /// time, whether or not it was subsequently repaired or routed around.
    #[inline]
    pub fn add_corruption_detected(&self) {
        self.counters.incr(IO_CORRUPTIONS_DETECTED);
    }

    /// Record one retry of a transiently-failed I/O (e.g. EIO answered by a
    /// bounded retry/backoff loop).
    #[inline]
    pub fn add_io_retry(&self) {
        self.counters.incr(IO_RETRIES);
    }

    /// Record one vectored read *device op*: a contiguous run of pages
    /// fetched in a single modeled device round trip. The per-page
    /// `page_reads` counter is charged as before; this counts the op, so
    /// `page_reads / vectored_read_ops` is the achieved read batch factor.
    #[inline]
    pub fn add_vectored_read_ops(&self, n: u64) {
        self.counters.add(IO_VECTORED_READ_OPS, n);
    }

    /// Record one batched write *device op*: a contiguous dirty-page run
    /// submitted as a single modeled device round trip (one `write_pages`
    /// call per run). Per-page `page_writes` is unchanged.
    #[inline]
    pub fn add_batched_write_ops(&self, n: u64) {
        self.counters.add(IO_BATCHED_WRITE_OPS, n);
    }
}

/// A point-in-time copy of [`IoStats`], supporting deltas and cost modeling.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    /// See [`IoStats::page_reads`].
    pub page_reads: u64,
    /// See [`IoStats::page_writes`].
    pub page_writes: u64,
    /// See [`IoStats::log_read_ios`].
    pub log_read_ios: u64,
    /// See [`IoStats::log_cache_hits`].
    pub log_cache_hits: u64,
    /// See [`IoStats::log_bytes_written`].
    pub log_bytes_written: u64,
    /// See [`IoStats::log_bytes_scanned`].
    pub log_bytes_scanned: u64,
    /// See [`IoStats::add_log_flush`].
    pub log_flushes: u64,
    /// See [`IoStats::seq_data_bytes`].
    pub seq_data_bytes: u64,
    /// See [`IoStats::add_page_salvage`].
    pub page_salvages: u64,
    /// See [`IoStats::add_corruption_detected`].
    pub corruptions_detected: u64,
    /// See [`IoStats::add_io_retry`].
    pub io_retries: u64,
    /// See [`IoStats::add_vectored_read_ops`].
    pub vectored_read_ops: u64,
    /// See [`IoStats::add_batched_write_ops`].
    pub batched_write_ops: u64,
}

/// The single authoritative `field name → counter index` list. Every
/// derived view — [`IoStats::snapshot`], [`IoSnapshot::delta`],
/// [`IoSnapshot::fields`] — is generated from this one list, so a counter
/// added here cannot silently miss delta or metrics-exposition support
/// (and a counter added to the struct but not here fails to compile,
/// because the generated struct literal would be incomplete).
macro_rules! io_snapshot_views {
    ($($name:ident: $idx:ident),* $(,)?) => {
        impl IoStats {
            /// Capture a point-in-time copy of the counters (exact
            /// aggregate: the sum over all stripes, each event counted
            /// exactly once).
            pub fn snapshot(&self) -> IoSnapshot {
                let s = self.counters.sums();
                IoSnapshot { $($name: s[$idx]),* }
            }
        }

        impl IoSnapshot {
            /// Counter-wise `self - earlier` (saturating), for measuring an
            /// interval.
            pub fn delta(self, earlier: IoSnapshot) -> IoSnapshot {
                IoSnapshot {
                    $($name: self.$name.saturating_sub(earlier.$name)),*
                }
            }

            /// Every counter as a `(stable name, value)` pair, in field
            /// order — the enumeration the metrics registry exposes.
            pub fn fields(&self) -> [(&'static str, u64); IO_COUNTERS] {
                [$((stringify!($name), self.$name)),*]
            }
        }
    };
}

io_snapshot_views! {
    page_reads: IO_PAGE_READS,
    page_writes: IO_PAGE_WRITES,
    log_read_ios: IO_LOG_READ_IOS,
    log_cache_hits: IO_LOG_CACHE_HITS,
    log_bytes_written: IO_LOG_BYTES_WRITTEN,
    log_bytes_scanned: IO_LOG_BYTES_SCANNED,
    log_flushes: IO_LOG_FLUSHES,
    seq_data_bytes: IO_SEQ_DATA_BYTES,
    page_salvages: IO_PAGE_SALVAGES,
    corruptions_detected: IO_CORRUPTIONS_DETECTED,
    io_retries: IO_RETRIES,
    vectored_read_ops: IO_VECTORED_READ_OPS,
    batched_write_ops: IO_BATCHED_WRITE_OPS,
}

impl IoSnapshot {
    /// Modeled elapsed time in microseconds, with data pages on `data` media
    /// and the transaction log on `log` media — the paper's experiments place
    /// these on different devices.
    pub fn modeled_micros(&self, data: &MediaModel, log: &MediaModel) -> u64 {
        data.random_read_time_us(self.page_reads)
            + data.random_write_time_us(self.page_writes)
            + data.seq_read_time_us(self.seq_data_bytes)
            + log.random_read_time_us(self.log_read_ios)
            + log.seq_write_time_us(self.log_bytes_written)
            + log.seq_read_time_us(self.log_bytes_scanned)
    }
}

impl fmt::Display for IoSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reads={} writes={} log_ios={} log_hits={} log_w={}B log_scan={}B log_flushes={} seq={}B",
            self.page_reads,
            self.page_writes,
            self.log_read_ios,
            self.log_cache_hits,
            self.log_bytes_written,
            self.log_bytes_scanned,
            self.log_flushes,
            self.seq_data_bytes
        )?;
        // The hardening counters print unconditionally (even when zero) so
        // bench logs are line-diffable across clean and faulty runs.
        write!(
            f,
            " salvages={} corruptions={} retries={}",
            self.page_salvages, self.corruptions_detected, self.io_retries
        )?;
        // Batching counters likewise print unconditionally: a scalar run
        // shows vec_ops=0 batch_w=0 rather than omitting the fields.
        write!(
            f,
            " vec_ops={} batch_w={}",
            self.vectored_read_ops, self.batched_write_ops
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn models_have_sensible_relative_costs() {
        let sas = MediaModel::sas_hdd();
        let ssd = MediaModel::ssd();
        assert!(sas.random_read_time_us(100) > ssd.random_read_time_us(100));
        // 1 GiB sequential at 100 MiB/s ≈ 10.24 s
        let t = sas.seq_read_time_us(1 << 30);
        assert!((9_000_000..12_000_000).contains(&t), "t={t}");
        assert_eq!(MediaModel::instant().seq_read_time_us(1 << 40), 0);
    }

    #[test]
    fn stats_snapshot_and_delta() {
        let s = IoStats::new();
        s.add_page_reads(3);
        s.add_log_read_io();
        s.add_log_bytes_written(100);
        let a = s.snapshot();
        s.add_page_reads(2);
        s.add_log_cache_hit();
        let b = s.snapshot();
        let d = b.delta(a);
        assert_eq!(d.page_reads, 2);
        assert_eq!(d.log_cache_hits, 1);
        assert_eq!(d.log_read_ios, 0);
        assert_eq!(d.log_bytes_written, 0);
    }

    #[test]
    fn striped_counters_aggregate_exactly() {
        // Hammer the counters from more threads than stripes; the aggregate
        // must equal the number of events exactly — no loss, no double
        // counting, regardless of stripe assignment.
        let s = std::sync::Arc::new(IoStats::new());
        let threads = 2 * crate::stripe::COUNTER_STRIPES;
        let per_thread = 1000u64;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let s = s.clone();
                std::thread::spawn(move || {
                    for _ in 0..per_thread {
                        s.add_log_cache_hit();
                        s.add_page_reads(2);
                        s.add_log_bytes_written(3);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = s.snapshot();
        let n = threads as u64 * per_thread;
        assert_eq!(snap.log_cache_hits, n);
        assert_eq!(snap.page_reads, 2 * n);
        assert_eq!(snap.log_bytes_written, 3 * n);
        assert_eq!(snap.log_read_ios, 0);
    }

    #[test]
    fn fields_enumerates_every_counter() {
        let s = IoStats::new();
        s.add_page_reads(1);
        s.add_io_retry();
        let snap = s.snapshot();
        let fields = snap.fields();
        assert_eq!(fields.len(), IO_COUNTERS);
        let get = |name: &str| {
            fields
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("missing field {name}"))
                .1
        };
        assert_eq!(get("page_reads"), 1);
        assert_eq!(get("io_retries"), 1);
        assert_eq!(get("page_salvages"), 0);
        // Names are unique.
        let mut names: Vec<_> = fields.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), IO_COUNTERS);
    }

    #[test]
    fn display_always_includes_hardening_counters() {
        let clean = IoSnapshot::default().to_string();
        assert!(clean.contains("salvages=0"), "{clean}");
        assert!(clean.contains("corruptions=0"), "{clean}");
        assert!(clean.contains("retries=0"), "{clean}");
    }

    #[test]
    fn modeled_time_uses_both_devices() {
        let io = IoSnapshot {
            log_read_ios: 10,
            page_reads: 2,
            ..Default::default()
        };
        let t = io.modeled_micros(&MediaModel::ssd(), &MediaModel::sas_hdd());
        // 10 log stalls on SAS at 5 ms + 2 page reads on SSD at 100 µs
        assert_eq!(t, 50_000 + 200);
    }
}
