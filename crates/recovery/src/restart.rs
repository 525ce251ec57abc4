//! Pipelined, partitioned ARIES restart: analysis streams into redo, and
//! redo fans out across worker threads partitioned by page.
//!
//! # Why partitioning by page is correct
//!
//! Redo's only ordering requirement is **per page**: a record must be
//! applied to its page after every earlier record for that same page,
//! because each record's forward effect assumes the page image produced by
//! its predecessor in the per-page chain (`prev_page_lsn`). Records for
//! *different* pages never interact — a page-op touches exactly one page —
//! so there is no cross-page ordering constraint to preserve. Hashing each
//! record to a worker by its `PageId` therefore suffices: all records for
//! one page land on one worker, a FIFO channel delivers them (in batches)
//! in the dispatcher's scan order (= LSN order), and the worker applies them with
//! the same `page_lsn < lsn` idempotency test at every worker count. Apply
//! counts are bit-exact across worker counts for the same reason the test
//! is per-page: whether a record applies depends only on its own page's
//! LSN, which only that record's worker advances. One worker is the same
//! code at `workers = 1`: one thread behind the one channel, fed by the same
//! scan — there is no other redo implementation, and no branch on the
//! worker count.
//!
//! # Why analysis can stream into redo
//!
//! Classical ARIES runs analysis to completion to learn the final
//! dirty-page table, then starts redo at min recLSN. The barrier is
//! unnecessary here because the DPT's recLSN per page is *final on first
//! sighting*: it is either the checkpoint-seeded value or the LSN of the
//! first page-op the scan encounters for that page (`or_insert`
//! semantics), and later records never lower it. So the redo qualification
//! test `lsn >= final_dpt[page].rec_lsn` can be evaluated online, during
//! the analysis scan itself, with the answer the final DPT would give:
//!
//! * records **before** the analysis window (`lsn < scan_start`) qualify
//!   only for pages in the checkpoint DPT (any page first dirtied inside
//!   the window has `recLSN >= scan_start > lsn`) — a prefix scan over
//!   `[min checkpoint recLSN, scan_start)` dispatches exactly those;
//! * records **inside** the window are dispatched as
//!   [`AnalysisBuilder::observe`] classifies them, comparing against the
//!   recLSN fixed at that page's first sighting.
//!
//! The loser table plays no part in redo (history is repeated for winners
//! and losers alike), so nothing in the undo phase is affected by the
//! missing barrier: undo still starts only after the scan — and therefore
//! analysis — completes.

use crate::analysis::{AnalysisBuilder, AnalysisResult};
use rewind_buffer::BufferPool;
use rewind_common::{Error, Lsn, PageId, Result};
use rewind_obs::Obs;
use rewind_wal::{LogManager, RecordRef};
use std::collections::HashMap;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

/// Redo statistics from the partitioned dispatcher.
#[derive(Clone, Debug, Default)]
pub struct PartitionedRedo {
    /// Records applied, summed over workers — identical at every worker
    /// count on the same log.
    pub applied: u64,
    /// Records applied by each worker (length = worker count; shows
    /// partition skew).
    pub per_worker: Vec<u64>,
}

/// Everything [`pipelined_restart`] produces.
///
/// Timings come from [`rewind_obs::monotonic_us`] — the process timebase,
/// independent of whether the obs handle is enabled — so recovery reports
/// carry real durations on a disabled-obs engine too.
#[derive(Clone, Debug)]
pub struct RestartOutcome {
    /// The completed analysis (the undo phase's input).
    pub analysis: AnalysisResult,
    /// Partitioned-redo accounting.
    pub redo: PartitionedRedo,
    /// µs from pass start until analysis completed (forward scan plus the
    /// supplemental loser-lock scan).
    pub analysis_us: u64,
    /// µs from pass start until the last redo worker drained. Overlaps
    /// `analysis_us` by design — the passes are pipelined, not sequential.
    pub redo_us: u64,
}

/// Records per dispatched batch: one channel rendezvous per batch instead
/// of per record. Order within and across batches is the dispatcher's scan
/// order, so per-page LSN order is preserved.
const REDO_BATCH: usize = 64;

/// Bounded depth of each worker's batch channel: enough to keep workers
/// busy across page-miss I/O stalls, small enough that the dispatcher
/// cannot race gigabytes of log ahead of slow workers.
const REDO_CHANNEL_DEPTH: usize = 64;

/// Stable page → worker partition (Fibonacci multiplicative hash, so
/// sequentially-allocated page ids spread instead of striping).
fn partition_of(page: PageId, workers: usize) -> usize {
    ((page.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) % workers
}

/// One redo worker: applies the batches its channel delivers, in order,
/// until the dispatcher closes it. A record counts as applied when its page
/// image actually advanced (`page_lsn < lsn`). Records its busy time;
/// returns its applied count.
fn redo_worker(pool: &BufferPool, obs: &Obs, batches: Receiver<Vec<RecordRef>>) -> Result<u64> {
    let (mut applied, mut busy_us) = (0u64, 0u64);
    for batch in batches {
        let t0 = obs.now_us();
        for rec in &batch {
            let (header, view) = rec.view()?;
            let advanced = pool.with_page_mut(header.page, |v| {
                if v.page().page_lsn() < header.lsn {
                    view.redo(v.page_mut(), header.page, header.lsn)?;
                    v.mark_dirty(header.lsn);
                    Ok(true)
                } else {
                    Ok(false)
                }
            })?;
            applied += u64::from(advanced);
        }
        busy_us += obs.now_us().saturating_sub(t0);
    }
    obs.redo_worker_us(busy_us);
    Ok(applied)
}

/// The single forward pass: the prefix scan dispatching checkpoint-DPT
/// redo work, then the combined analysis + dispatch scan. `dispatch`
/// returns `Ok(false)` to stop early (a worker exited; its error surfaces
/// at join).
fn scan_and_dispatch(
    log: &LogManager,
    builder: &mut AnalysisBuilder,
    mut dispatch: impl FnMut(&RecordRef, PageId) -> Result<bool>,
) -> Result<()> {
    let scan_start = builder.scan_start();
    // Prefix: records before the analysis window qualify only for pages
    // dirty at the checkpoint (see module docs).
    let seed: HashMap<PageId, Lsn> = builder
        .checkpoint_dpt()
        .iter()
        .map(|e| (e.page, e.rec_lsn))
        .collect();
    let prefix_from = seed.values().copied().min().filter(|l| *l < scan_start);
    if let Some(from) = prefix_from {
        log.scan_refs(from, scan_start, |rec| {
            let header = rec.header()?;
            if header.is_page_op() && header.page.is_valid() {
                if let Some(&rec_lsn) = seed.get(&header.page) {
                    if header.lsn >= rec_lsn {
                        return dispatch(rec, header.page);
                    }
                }
            }
            Ok(true)
        })?;
    }
    // Combined scan: every record feeds analysis; page-ops that qualify
    // against the first-sighting recLSN are dispatched immediately.
    log.scan_refs(scan_start, Lsn::MAX, |rec| {
        let (header, view) = rec.view()?;
        if let Some(rec_lsn) = builder.observe(&header, &view) {
            if header.lsn >= rec_lsn {
                return dispatch(rec, header.page);
            }
        }
        Ok(true)
    })?;
    Ok(())
}

/// Run restart's analysis and redo as one pipelined pass from the newest
/// checkpoint to the end of the log, with redo partitioned across
/// `workers` threads (at least 1), so the scan always overlaps apply.
///
/// The pass reads `[restart's start, tail)` and nothing else, where the
/// start is the lowest of the checkpoint's begin, its DPT's lowest recLSN
/// and the oldest loser's first record. A damaged frame in that window is
/// the typed `LogBlock` error the read returned, for the caller to cut at.
///
/// Returns the completed [`AnalysisResult`] (the undo phase's input) and
/// the redo statistics. Accounting — total applied count, per-page apply
/// decisions, analysis tables — is identical at every worker count; see
/// the module docs for the argument.
pub fn pipelined_restart(
    log: &LogManager,
    pool: &BufferPool,
    workers: usize,
) -> Result<RestartOutcome> {
    let workers = workers.max(1);
    let started = rewind_obs::monotonic_us();
    let mut builder = AnalysisBuilder::seed(log, Lsn::MAX)?;
    let obs = log.obs().clone();

    let redo = std::thread::scope(|s| -> Result<PartitionedRedo> {
        let mut txs: Vec<SyncSender<Vec<RecordRef>>> = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = sync_channel::<Vec<RecordRef>>(REDO_CHANNEL_DEPTH);
            let obs = &obs;
            handles.push(s.spawn(move || redo_worker(pool, obs, rx)));
            txs.push(tx);
        }
        let mut bufs: Vec<Vec<RecordRef>> = (0..workers)
            .map(|_| Vec::with_capacity(REDO_BATCH))
            .collect();
        let scan_res = scan_and_dispatch(log, &mut builder, |rec, page| {
            let w = partition_of(page, workers);
            bufs[w].push(rec.clone());
            if bufs[w].len() == REDO_BATCH {
                let batch = std::mem::replace(&mut bufs[w], Vec::with_capacity(REDO_BATCH));
                // A failed send means the worker already exited (on
                // error); stop dispatching, the join below surfaces it.
                return Ok(txs[w].send(batch).is_ok());
            }
            Ok(true)
        });
        // Flush the partial tail batches, then close the channels so
        // idle workers drain out and exit.
        if scan_res.is_ok() {
            for (w, buf) in bufs.into_iter().enumerate() {
                if !buf.is_empty() {
                    let _ = txs[w].send(buf);
                }
            }
        }
        drop(txs);
        // The scan's error comes first: a damaged frame it met is the error
        // restart cuts the log at, whatever a worker reports.
        let mut first_err = scan_res.err();
        let per_worker: Vec<u64> = handles
            .into_iter()
            .map(|h| {
                let panicked = || Err(Error::Internal("redo worker panicked".into()));
                h.join().unwrap_or_else(|_| panicked()).unwrap_or_else(|e| {
                    first_err.get_or_insert(e);
                    0
                })
            })
            .collect();
        match first_err {
            Some(e) => Err(e),
            None => Ok(PartitionedRedo {
                applied: per_worker.iter().sum(),
                per_worker,
            }),
        }
    })?;
    let redo_us = rewind_obs::monotonic_us().saturating_sub(started);

    let analysis = builder.finish(log, Lsn::MAX)?;
    let analysis_us = rewind_obs::monotonic_us().saturating_sub(started);
    Ok(RestartOutcome {
        analysis,
        redo,
        analysis_us,
        redo_us,
    })
}
