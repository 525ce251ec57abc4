//! `PreparePageAsOf(page, asOfLSN)` — the paper's core primitive (§4).
//!
//! > "It reads the current copy of page from the source database and applies
//! > the transaction log to undo modifications up to the asOfLSN."
//!
//! The basic loop is the paper's Fig. 3. On top of it sits the §6.1
//! optimization: if full page images are being logged every Nth
//! modification, the page header's `lastFpiLSN` anchors a backward chain of
//! images; restoring the *earliest image after the target LSN* lets the walk
//! skip whole regions of log and undo at most N individual modifications.

use rewind_common::{Error, Lsn, PageId, Result};
use rewind_pagestore::Page;
use rewind_wal::{LogManager, LogPayloadView, RecordRef};

/// Costs observed while preparing one page; the paper's Fig. 11 reports the
/// number of undo log reads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrepareStats {
    /// Individual modifications undone (paper Fig. 3 loop iterations).
    pub records_undone: u64,
    /// FPI-chain records inspected while looking for a skip target.
    pub fpi_chain_reads: u64,
    /// Whether a full page image was restored to skip log.
    pub fpi_restored: bool,
}

/// Rewind `page` (currently at some state with `pageLSN >= as_of`) back to
/// `as_of`, using the per-page chain in `log`.
///
/// A page that did not exist at `as_of` unwinds to the unallocated state
/// (its chain walks through its `Format`/`Preformat` records). Returns
/// [`Error::LogTruncated`] when the needed history has been discarded —
/// callers surface that as a retention error.
///
/// Addressability invariant: an `as_of` that falls *between* a page's
/// `Preformat` and `Format` records yields the erased (unallocated) state
/// rather than the preserved old image. That instant is unreachable through
/// any query: the page is deallocated and not yet linked into any structure
/// at every SplitLSN that can land there, and split points are commit
/// records, never page-op records.
pub fn prepare_page_as_of(
    log: &LogManager,
    page: &mut Page,
    pid: PageId,
    as_of: Lsn,
) -> Result<PrepareStats> {
    let mut stats = PrepareStats::default();

    // §6.1 skip: find the earliest full page image with lsn > as_of. The
    // chain is walked through zero-copy record refs: the image bytes stay in
    // the log segment until (unless) one is actually restored.
    let mut fpi_cursor = page.last_fpi_lsn();
    let mut skip_target: Option<RecordRef> = None;
    while fpi_cursor.is_valid() && fpi_cursor > as_of {
        let rec = log.get_record_ref(fpi_cursor)?;
        stats.fpi_chain_reads += 1;
        match rec.view()?.1 {
            LogPayloadView::FullPageImage { prev_fpi_lsn, .. } => {
                skip_target = Some(rec);
                fpi_cursor = prev_fpi_lsn;
            }
            other => {
                return Err(Error::corruption(format!(
                    "FPI chain of {pid:?} hit non-FPI record {other:?} at {fpi_cursor}"
                )))
            }
        }
    }
    if let Some(rec) = skip_target {
        if rec.lsn() < page.page_lsn() {
            // Jump the page back to the image (restored straight from the
            // borrowed segment bytes); the normal loop below then undoes
            // only the (at most N) modifications between as_of and the
            // image.
            rec.view()?.1.redo(page, pid, rec.lsn())?;
            stats.fpi_restored = true;
        }
    }

    // Paper Fig. 3. Header-only navigation plus borrowed-payload undo: no
    // per-record allocation, no payload copies.
    let mut cur = page.page_lsn();
    while cur.is_valid() && cur > as_of {
        let rec = log.get_record_ref(cur)?;
        stats.records_undone += 1;
        let (header, view) = rec.view()?;
        if header.page != pid {
            return Err(Error::corruption(format!(
                "page chain of {pid:?} reached record for {:?} at {cur}",
                header.page
            )));
        }
        view.undo(page, pid)?;
        cur = header.prev_page_lsn;
    }
    page.set_page_lsn(cur);
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rewind_common::{ObjectId, TxnId};
    use rewind_pagestore::PageType;
    use rewind_wal::{LogConfig, LogRecord};

    /// A tiny harness that mimics the live modify path for one page:
    /// logs a record with correct chains, applies it.
    struct PageSim {
        log: LogManager,
        page: Page,
        pid: PageId,
        fpi_interval: u32,
        mods_since_fpi: u32,
        /// retained history for oracle comparison: (lsn after apply, image)
        history: Vec<(Lsn, Page)>,
    }

    impl PageSim {
        fn new(fpi_interval: u32) -> Self {
            let pid = PageId(5);
            let mut sim = PageSim {
                log: LogManager::new(LogConfig::default()),
                page: Page::zeroed(),
                pid,
                fpi_interval,
                mods_since_fpi: 0,
                history: Vec::new(),
            };
            sim.history.push((Lsn::NULL, sim.page.clone()));
            sim.apply(LogPayloadView::Format {
                object: ObjectId(1),
                ty: PageType::BTreeLeaf,
                level: 0,
                next: PageId::INVALID,
                prev: PageId::INVALID,
            });
            sim
        }

        fn apply(&mut self, payload: LogPayloadView<'_>) -> Lsn {
            let rec = LogRecord {
                lsn: Lsn::NULL,
                txn: TxnId(1),
                prev_lsn: Lsn::NULL,
                page: self.pid,
                prev_page_lsn: self.page.page_lsn(),
                object: ObjectId(1),
                undo_next: Lsn::NULL,
                flags: 0,
                payload,
            };
            let lsn = self.log.append(&rec);
            payload.redo(&mut self.page, self.pid, lsn).unwrap();
            self.history.push((lsn, self.page.clone()));
            if self.fpi_interval > 0 {
                self.mods_since_fpi += 1;
                if self.mods_since_fpi >= self.fpi_interval {
                    self.mods_since_fpi = 0;
                    let image = Box::new(*self.page.image());
                    let rec = LogRecord {
                        lsn: Lsn::NULL,
                        txn: TxnId::NONE,
                        prev_lsn: Lsn::NULL,
                        page: self.pid,
                        prev_page_lsn: self.page.page_lsn(),
                        object: ObjectId(1),
                        undo_next: Lsn::NULL,
                        flags: 0,
                        payload: LogPayloadView::FullPageImage {
                            prev_fpi_lsn: self.page.last_fpi_lsn(),
                            image: &image,
                        },
                    };
                    let lsn = self.log.append(&rec);
                    rec.payload.redo(&mut self.page, self.pid, lsn).unwrap();
                    self.history.push((lsn, self.page.clone()));
                }
            }
            lsn
        }

        /// Drive a deterministic workload of inserts/updates/deletes.
        fn run(&mut self, ops: usize) {
            let mut n = 0usize; // live records
            let mut state = 7u64;
            let mut rng = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(144);
                state >> 33
            };
            for i in 0..ops {
                let r = rng() % 10;
                let room = self.page.can_insert(96);
                if n == 0 || (r < 5 && room) {
                    let bytes = format!("op{i}-{}", "x".repeat((rng() % 64) as usize));
                    let slot = (rng() as usize) % (n + 1);
                    self.apply(LogPayloadView::InsertRecord {
                        slot: slot as u16,
                        bytes: bytes.as_bytes(),
                    });
                    n += 1;
                } else if r < 8 && n > 0 {
                    let slot = (rng() as usize) % n;
                    let old = self.page.record(slot).unwrap().to_vec();
                    // never longer than the shortest possible record
                    let new = format!("u{:03}", i % 1000).into_bytes();
                    self.apply(LogPayloadView::UpdateRecord {
                        slot: slot as u16,
                        old: &old,
                        new: &new,
                    });
                } else {
                    let slot = (rng() as usize) % n;
                    let old = self.page.record(slot).unwrap().to_vec();
                    self.apply(LogPayloadView::DeleteRecord {
                        slot: slot as u16,
                        old: &old,
                    });
                    n -= 1;
                }
            }
        }

        fn check_prepare_at_every_point(&self) {
            for (as_of, expect) in &self.history {
                let mut p = self.page.clone();
                let stats = prepare_page_as_of(&self.log, &mut p, self.pid, *as_of).unwrap();
                assert_eq!(p.page_lsn(), expect.page_lsn(), "pageLSN at {as_of}");
                let a: Vec<_> = p.records().collect();
                let b: Vec<_> = expect.records().collect();
                assert_eq!(a, b, "records at as_of={as_of} (stats {stats:?})");
                assert_eq!(p.page_type(), expect.page_type(), "type at {as_of}");
            }
        }
    }

    #[test]
    fn rewinds_to_every_historical_state_without_fpi() {
        let mut sim = PageSim::new(0);
        sim.run(120);
        sim.check_prepare_at_every_point();
    }

    #[test]
    fn rewinds_to_every_historical_state_with_fpi() {
        for interval in [1u32, 4, 16] {
            let mut sim = PageSim::new(interval);
            sim.run(120);
            sim.check_prepare_at_every_point();
        }
    }

    #[test]
    fn fpi_skip_bounds_undo_work() {
        let mut with_fpi = PageSim::new(8);
        with_fpi.run(400);
        let mut without = PageSim::new(0);
        without.run(400);

        // Rewind all the way to just after format.
        let early = with_fpi.history[1].0;
        let mut p = with_fpi.page.clone();
        let s1 = prepare_page_as_of(&with_fpi.log, &mut p, with_fpi.pid, early).unwrap();
        let early_nofpi = without.history[1].0;
        let mut q = without.page.clone();
        let s2 = prepare_page_as_of(&without.log, &mut q, without.pid, early_nofpi).unwrap();

        assert!(s1.fpi_restored, "skip must engage for deep rewinds");
        assert!(
            s1.records_undone <= 8 + 1,
            "with N=8 at most ~N records are undone, got {}",
            s1.records_undone
        );
        assert!(
            s2.records_undone > 100,
            "without FPIs every modification is undone, got {}",
            s2.records_undone
        );
    }

    #[test]
    fn unwinding_past_format_yields_unallocated_page() {
        let sim = {
            let mut s = PageSim::new(0);
            s.run(10);
            s
        };
        let mut p = sim.page.clone();
        prepare_page_as_of(&sim.log, &mut p, sim.pid, Lsn::NULL).unwrap();
        assert_eq!(p.page_type(), PageType::Free);
        assert_eq!(p.page_lsn(), Lsn::NULL);
        assert_eq!(p.slot_count(), 0);
    }

    #[test]
    fn noop_when_page_already_old_enough() {
        let mut sim = PageSim::new(0);
        sim.run(5);
        let mut p = sim.page.clone();
        let stats = prepare_page_as_of(&sim.log, &mut p, sim.pid, Lsn::MAX).unwrap();
        assert_eq!(stats.records_undone, 0);
        assert_eq!(p.page_lsn(), sim.page.page_lsn());
    }

    #[test]
    fn truncated_history_is_detected() {
        let mut sim = PageSim::new(0);
        sim.run(4000);
        sim.log.flush_to(sim.log.tail_lsn());
        let mid = sim.history[sim.history.len() / 2].0;
        sim.log.truncate_before(mid);
        if sim.log.truncation_point() > Lsn::FIRST {
            let mut p = sim.page.clone();
            let err = prepare_page_as_of(&sim.log, &mut p, sim.pid, Lsn::FIRST);
            assert!(matches!(err, Err(Error::LogTruncated(_))), "got {err:?}");
        }
    }
}
