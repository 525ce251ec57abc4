//! The as-of steps: a query of the past near and far, and a scan of it.

use crate::gen::Rng;
use crate::marks::{Digest, Marks, CUSTOMER};
use crate::samples::{AsofSamples, Ops};
use crate::spec;
use crate::trace::{Name, Tracer};
use rewind_core::{Database, Result, SnapshotDb};
use rewind_tpcc as tpcc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Distance {
    Near,
    Far,
}

/// The as-of steps' context: the script's, or the looper's beside the writer.
pub struct AsofRunner<'a> {
    pub db: &'a Database,
    pub marks: &'a Marks,
    /// Transactions finished so far; distances back are counted from it.
    pub finished: &'a AtomicU64,
    /// District choices.
    pub rng: &'a mut Rng,
    pub tr: &'a mut Tracer,
    pub out: &'a mut AsofSamples,
    pub ops: Ops,
    /// Numbers the snapshots: names must be unique among the open ones.
    pub seq: &'a mut u64,
}

impl AsofRunner<'_> {
    fn name(&mut self) -> String {
        *self.seq += 1;
        format!("e2e-{}", self.seq)
    }

    /// `create_snapshot_asof` at the mark nearest the distance, one cold
    /// `stock_level_asof` (the metric is the two together), ten warm repeats,
    /// `wait_undo_complete`, `drop_snapshot`.
    pub fn query(&mut self, distance: Distance) {
        let (back, step) = match distance {
            Distance::Near => (spec::NEAR_TXNS, Name::StepAsofNear),
            Distance::Far => (spec::FAR_TXNS, Name::StepAsofFar),
        };
        let now = self.finished.load(Ordering::Acquire);
        let Some(mark) = self.marks.nearest(now, back, false) else {
            return self.ops.fail("as-of query: no mark to look back to".into());
        };
        let district = self.rng.below(mark.stock.len() as u64) as usize;
        let name = self.name();
        let (db, tr) = (self.db, &mut *self.tr);
        let log0 = db.log_io();
        tr.enter(step);
        let t0 = Instant::now();
        let result = (|| -> Result<std::result::Result<(), String>> {
            let snap = tr.span(Name::SnapCreate, || db.create_snapshot_asof(&name, mark.at))?;
            let query = |snap: &SnapshotDb| {
                tpcc::stock_level_asof(snap, 1, district as u64 + 1, spec::STOCK_THRESHOLD)
            };
            let first = tr.span(Name::SnapFirstQuery, || query(&snap));
            let ms = t0.elapsed().as_nanos() as f64 / 1e6;
            let after_first = snap.stats();
            let warm0 = Instant::now();
            let warm = tr.span(Name::SnapWarmQueries, || {
                (0..spec::WARM_REPEATS).try_for_each(|_| query(&snap).map(|_| ()))
            });
            let warm_us = warm0.elapsed().as_nanos() as f64 / 1e3 / spec::WARM_REPEATS as f64;
            tr.span(Name::SnapUndoWait, || snap.wait_undo_complete());
            let stats = snap.stats();
            let side_pages = snap.side_pages() as u64;
            drop(snap);
            tr.span(Name::SnapDrop, || db.drop_snapshot(&name))?;
            let got = first?;
            warm?;
            let o = &mut *self.out;
            match distance {
                Distance::Near => o.near_ms.push(ms),
                Distance::Far => o.far_ms.push(ms),
            }
            o.warm_us.push(warm_us);
            o.side_pages += side_pages;
            o.first_query_pages += after_first.pages_prepared;
            o.pages_prepared += stats.pages_prepared;
            o.records_undone += stats.records_undone;
            o.fpi_restores += stats.fpi_restores;
            o.warm_side_hits += stats.side_hits - after_first.side_hits;
            o.warm_queries += spec::WARM_REPEATS as u64;
            Ok(if got == mark.stock[district] {
                Ok(())
            } else {
                Err(format!(
                    "stock level {got} as of {} but the mark recorded {}",
                    mark.at, mark.stock[district]
                ))
            })
        })();
        tr.exit();
        let log = db.log_io().delta(log0);
        self.out.cycles += 1;
        self.out.log_read_ios += log.log_read_ios;
        self.out.log_cache_hits += log.log_cache_hits;
        match result {
            Ok(check) => self.ops.check("as-of query", check),
            Err(e) => {
                let _ = db.drop_snapshot(&name);
                self.ops.fail(format!("as-of query: {e}"))
            }
        }
    }

    /// A fresh snapshot at the mark nearest `SCAN_TXNS` back and one cold
    /// `scan_all(customer)`; rows / time, creation included.
    pub fn scan(&mut self) {
        let now = self.finished.load(Ordering::Acquire);
        let Some(mark) = self.marks.nearest(now, spec::SCAN_TXNS, true) else {
            return self.ops.fail("as-of scan: no mark to look back to".into());
        };
        let name = self.name();
        let (db, tr) = (self.db, &mut *self.tr);
        let (log0, data0) = (db.log_io(), db.data_io());
        tr.enter(Name::StepAsofScan);
        let t0 = Instant::now();
        let result = (|| -> Result<std::result::Result<(), String>> {
            let snap = tr.span(Name::SnapCreate, || db.create_snapshot_asof(&name, mark.at))?;
            let rows = tr.span(Name::SnapScanAll, || {
                snap.table("customer").and_then(|t| snap.scan_all(&t))
            });
            let secs = t0.elapsed().as_secs_f64();
            let stats = snap.stats();
            tr.span(Name::SnapUndoWait, || snap.wait_undo_complete());
            drop(snap);
            tr.span(Name::SnapDrop, || db.drop_snapshot(&name))?;
            let rows = rows?;
            let got = tr.span(Name::BenchOracle, || Digest::of(&rows));
            let o = &mut *self.out;
            o.scan_rows_per_s.push(rows.len() as f64 / secs);
            o.scans += 1;
            o.scan_pages_prepared += stats.pages_prepared;
            o.pages_prepared += stats.pages_prepared;
            o.records_undone += stats.records_undone;
            o.fpi_restores += stats.fpi_restores;
            let want = mark.tables.map(|t| t[CUSTOMER]);
            Ok(if Some(got) == want {
                Ok(())
            } else {
                Err(format!(
                    "customer as of {} is {got:?} but the mark recorded {want:?}",
                    mark.at
                ))
            })
        })();
        tr.exit();
        let (log, data) = (db.log_io().delta(log0), db.data_io().delta(data0));
        self.out.cycles += 1;
        self.out.log_read_ios += log.log_read_ios;
        self.out.log_cache_hits += log.log_cache_hits;
        self.out.scan_page_reads += data.page_reads;
        self.out.scan_read_ops += data.vectored_read_ops;
        match result {
            Ok(check) => self.ops.check("as-of scan", check),
            Err(e) => {
                let _ = db.drop_snapshot(&name);
                self.ops.fail(format!("as-of scan: {e}"))
            }
        }
    }

    /// One near, one far, one scan.
    pub fn cycle(&mut self) {
        self.query(Distance::Near);
        self.query(Distance::Far);
        self.scan();
    }
}
