//! Instrumentation counters for snapshot behaviour.
//!
//! These counters feed the paper's evaluation directly: pages prepared and
//! log records undone drive Figs. 9–11 (query cost grows with modifications
//! to the touched pages), and side-file hits show the caching the paper
//! describes in §5.3.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counters accumulated over the life of one snapshot.
#[derive(Debug, Default)]
pub struct SnapshotStats {
    /// Pages fetched from the side file (already prepared).
    pub side_hits: AtomicU64,
    /// Pages read from the primary and rewound to the SplitLSN.
    pub pages_prepared: AtomicU64,
    /// Individual log records undone by `PreparePageAsOf`.
    pub records_undone: AtomicU64,
    /// FPI-chain reads performed looking for skip targets.
    pub fpi_chain_reads: AtomicU64,
    /// Full page images restored (log regions skipped).
    pub fpi_restores: AtomicU64,
    /// Log records processed by background logical undo.
    pub undo_records: AtomicU64,
}

impl SnapshotStats {
    /// Point-in-time copy.
    pub fn snapshot(&self) -> SnapshotStatsView {
        SnapshotStatsView {
            side_hits: self.side_hits.load(Ordering::Relaxed),
            pages_prepared: self.pages_prepared.load(Ordering::Relaxed),
            records_undone: self.records_undone.load(Ordering::Relaxed),
            fpi_chain_reads: self.fpi_chain_reads.load(Ordering::Relaxed),
            fpi_restores: self.fpi_restores.load(Ordering::Relaxed),
            undo_records: self.undo_records.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data view of [`SnapshotStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotStatsView {
    /// See [`SnapshotStats::side_hits`].
    pub side_hits: u64,
    /// See [`SnapshotStats::pages_prepared`].
    pub pages_prepared: u64,
    /// See [`SnapshotStats::records_undone`].
    pub records_undone: u64,
    /// See [`SnapshotStats::fpi_chain_reads`].
    pub fpi_chain_reads: u64,
    /// See [`SnapshotStats::fpi_restores`].
    pub fpi_restores: u64,
    /// See [`SnapshotStats::undo_records`].
    pub undo_records: u64,
}
