//! The fixed-work script: set-up, then rounds of
//! OLTP -> mark -> crash restart -> bad batch -> good work -> as-of near/far/
//! scan -> flashback -> checkpoint, with every answer checked.
//!
//! Nothing here ends on a clock. Every run of a workload executes the same
//! transactions against the same database states, so a faster OLTP path
//! cannot make flashback or far as-of look slower.

use crate::asof::AsofRunner;
use crate::gen::{Rng, TxnInput, TxnKind, TxnStream};
use crate::marks::{digest_tables, read_txn, take_mark, Marks};
use crate::noise;
use crate::samples::{trace_overhead_pct, BatchSample, Ops, RunReport, Samples, TerminalSamples};
use crate::spec::{self, Workload};
use crate::stats;
use crate::terminal::{BatchOutcome, Terminal};
use crate::trace::{Name, Tracer};
use rewind_core::{
    Database, DbConfig, DbStats, Error, Lsn, Result, Row, SimClock, Timestamp, TxnId, Value,
};
use rewind_obs::EventKind;
use rewind_pagestore::{FileManager, MemFileManager};
use rewind_repair::{flashback, RepairConfig, RepairReport, RepairTarget};
use rewind_tpcc::txns::CustomerSelector;
use rewind_tpcc::{self as tpcc, NewOrderLine, TpccScale};
use std::collections::{BTreeSet, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// What one run is asked to do.
pub struct RunOptions {
    pub workload: &'static Workload,
    pub seed: u64,
    pub rounds: usize,
    pub trace: bool,
    pub scale: TpccScale,
    pub history_txns: usize,
    pub buffer_pages: usize,
    /// Self-test only: falsify the recorded answers of every mark, which
    /// must turn `correct` false.
    pub corrupt_marks: bool,
}

impl RunOptions {
    pub fn full(workload: &'static Workload, seed: u64, seconds: u64, trace: bool) -> RunOptions {
        RunOptions {
            workload,
            seed,
            rounds: workload.rounds_for(seconds),
            trace,
            scale: spec::SCALE,
            history_txns: spec::HISTORY_TXNS,
            buffer_pages: workload.buffer_pages,
            corrupt_marks: false,
        }
    }
}

fn live(db: &Option<Database>) -> &Database {
    db.as_ref().expect("the database exists between restarts")
}

/// Move the simulated clock one transaction's worth. Everything that stamps
/// the log (a transaction, a checkpoint, a restart's checkpoint) is preceded
/// by one, so that no checkpoint carries the stamp of the mark before it:
/// `find_split_lsn` starts from the sparse time index when the checkpoint
/// directory has nothing old enough, the index also lists checkpoint-end
/// records, the search reads stamps only off commits and checkpoint begins,
/// and so a mark whose index entry is the end record of a checkpoint with the
/// mark's own stamp is reported as outside the retention period.
fn tick(db: &Database) {
    db.clock().advance_micros(spec::SIM_US_PER_TXN);
}

/// Note where the newest checkpoint began: a place retention may later cut.
fn remember_checkpoint(db: &Database, cuts: &mut Vec<(Timestamp, Lsn)>) {
    if let Some(taken) = db.log().checkpoint_before(Lsn::MAX) {
        cuts.push((taken.at, taken.begin_lsn));
    }
}

/// The rows the bad batch damages, in key order.
fn bad_customers(db: &Database) -> Result<Vec<Row>> {
    read_txn(db, |t| {
        db.scan_prefix(t, "customer", &[Value::U64(spec::BAD_WAREHOUSE)])
    })
}

fn terminal<'t>(
    db: &'t Option<Database>,
    opt: &RunOptions,
    finished: &'t AtomicU64,
) -> Terminal<'t> {
    Terminal {
        db: live(db),
        districts: opt.scale.districts_per_warehouse,
        finished,
    }
}

pub struct Run<'a> {
    opt: &'a RunOptions,
    db: Option<Database>,
    fm: Arc<MemFileManager>,
    streams: Vec<TxnStream>,
    asof_rng: Rng,
    marks: Marks,
    finished: AtomicU64,
    /// The script's own tracer (and terminal 0's).
    pub tr: Tracer,
    /// The second thread's: terminal 1, or the looper.
    pub tr2: Tracer,
    out: Samples,
    asof_seq: u64,
    /// Time and begin LSN of the script's own checkpoints still in the log.
    cuts: Vec<(Timestamp, Lsn)>,
}

impl<'a> Run<'a> {
    pub fn db(&self) -> &Database {
        live(&self.db)
    }

    pub fn marks(&self) -> &Marks {
        &self.marks
    }

    pub fn device(&self) -> &MemFileManager {
        &self.fm
    }

    pub fn device_delay_us(&self) -> u64 {
        self.opt.workload.device_delay_us
    }

    pub fn finished(&self) -> u64 {
        self.finished.load(Ordering::Acquire)
    }

    /// Create, load, run the history, checkpoint, run one unmeasured round.
    /// Returns the run ready for its timed window, with set-up's numbers.
    pub fn set_up(opt: &'a RunOptions, epoch: Instant) -> Result<(Run<'a>, f64, f64)> {
        let w = opt.workload;
        let t0 = Instant::now();
        let mut cfg = DbConfig {
            buffer_pages: opt.buffer_pages,
            fpi_interval: w.fpi_interval,
            asof_scan_budget: w.asof_scan_budget,
            retention_micros: spec::RETENTION_TXNS * spec::SIM_US_PER_TXN,
            checkpoint_interval_bytes: spec::CHECKPOINT_INTERVAL_BYTES,
            ..DbConfig::default()
        };
        cfg.log.flush_delay_us = w.flush_delay_us;
        let fm = Arc::new(MemFileManager::new());
        let db = Database::create_on(fm.clone(), cfg, SimClock::new())?;
        tpcc::create_schema(&db)?;
        let load0 = Instant::now();
        let loaded = tpcc::load_initial(&db, &opt.scale)?;
        let load_rows_per_s = loaded.rows as f64 / load0.elapsed().as_secs_f64();

        let homes = |t: usize| (w.terminals > 1).then_some(t as u64 + 1);
        let mut run = Run {
            opt,
            db: Some(db),
            fm,
            streams: (0..w.terminals)
                .map(|t| TxnStream::new(opt.seed, t as u64, opt.scale, homes(t)))
                .collect(),
            asof_rng: Rng::fork(opt.seed, 1_000),
            marks: Marks::default(),
            finished: AtomicU64::new(0),
            tr: Tracer::new(epoch, 0, 1 << 16),
            tr2: Tracer::new(epoch, 1, 1 << 16),
            out: Samples::default(),
            asof_seq: 0,
            cuts: Vec::new(),
        };
        run.checkpoint()?;

        // History, from one terminal, so that the far distance exists; a full
        // mark every MARK_EVERY transactions gives the first rounds their past.
        let history = run.streams[0].batch(opt.history_txns);
        let mut ops = Ops::default();
        for (i, input) in history.iter().enumerate() {
            terminal(&run.db, opt, &run.finished).run(input, &mut run.tr, None, &mut ops);
            if (i + 1) % spec::MARK_EVERY == 0 {
                run.mark()?;
            }
            // checkpoints at the rounds' own cadence, so that retention has
            // the same places to cut from the first round on
            if (i + 1) % w.txns_per_round() == 0 {
                run.checkpoint()?;
            }
        }
        run.checkpoint()?;
        // The history only has to exist; the modeled device starts to charge
        // with the rounds.
        run.fm.set_device_delay_us(w.device_delay_us);
        run.round(0)?;
        // Nothing of set-up is a sample, but a failure in it stays a failure
        // of the run.
        ops.absorb(std::mem::take(&mut run.out.ops));
        run.out = Samples::default();
        run.out.ops.attempted = ops.failed;
        run.out.ops.failed = ops.failed;
        run.out.ops.errors = ops.errors;
        run.tr.clear();
        run.tr2.clear();
        Ok((run, t0.elapsed().as_secs_f64(), load_rows_per_s))
    }

    /// The timed window: `rounds` rounds, then the end-of-window readings.
    pub fn window(&mut self, setup_s: f64, load_rows_per_s: f64) -> Result<RunReport> {
        let obs = self.db().obs().clone();
        let (stall0, prepare0) = (obs.flush_stall(), obs.asof_prepare());
        let (data0, log0) = (self.db().data_io(), self.db().log_io());
        let contended0 = self.db().pool_stats().map_contended;
        let jiffies0 = noise::cpu_jiffies();
        let t0 = Instant::now();
        for round in 1..=self.opt.rounds {
            self.round(round)?;
        }
        let window_s = t0.elapsed().as_secs_f64();
        let steal_pct = noise::steal_pct(jiffies0, noise::cpu_jiffies());
        let db = live(&self.db);
        let data = db.data_io().delta(data0);
        let log = db.log_io().delta(log0);
        let stats: DbStats = db.stats()?;
        // every pool of the window, less what the first had seen before it
        self.out.map_contended += db.pool_stats().map_contended;
        self.out.map_contended -= contended0.min(self.out.map_contended);
        Ok(RunReport {
            samples: std::mem::take(&mut self.out),
            setup_s,
            load_rows_per_s,
            window_s,
            steal_pct,
            retained_log_mib: stats.log_retained_bytes as f64 / (1u64 << 20) as f64,
            data_pages: stats.allocated_pages as u64,
            io_retries: data.io_retries + log.io_retries,
            window_page_writes: data.page_writes,
            window_write_ops: data.batched_write_ops,
            flush_stall: obs.flush_stall().delta(&stall0),
            asof_prepare: obs.asof_prepare().delta(&prepare0),
            rounds: self.opt.rounds,
        })
    }

    fn mark(&mut self) -> Result<()> {
        let m = take_mark(self.db(), self.finished.load(Ordering::Acquire), false)?;
        self.marks.push(m, self.opt.corrupt_marks);
        Ok(())
    }

    /// One round. Every kind of operation is in every round, so each metric
    /// samples the whole window and a slow stretch of the host is spread over
    /// all of them instead of sinking one.
    fn round(&mut self, round: usize) -> Result<()> {
        let trace = self.opt.trace;
        self.out.calib_ns.push(noise::calibration_ns());

        // A terminal switches its tracer itself, block by block; the looper
        // records all it does.
        self.tr.set(false, round as u32);
        self.tr2
            .set(trace && self.opt.workload.asof_beside_oltp, round as u32);
        self.oltp(round)?;

        self.tr.set(trace, round as u32);
        self.mark()?;
        self.restart()?;
        let (bad, before) = self.bad_batch()?;
        self.good(spec::GOOD_BEFORE_ASOF)?;
        if !self.opt.workload.asof_beside_oltp {
            let mut asof = AsofRunner {
                db: live(&self.db),
                marks: &self.marks,
                finished: &self.finished,
                rng: &mut self.asof_rng,
                tr: &mut self.tr,
                out: &mut self.out.asof,
                ops: Ops::default(),
                seq: &mut self.asof_seq,
            };
            asof.cycle();
            self.out.ops.absorb(asof.ops);
        }
        self.flashback(bad, &before);
        self.checkpoint()
    }

    /// The OLTP batch: `oltp_per_terminal` transactions of the standard mix
    /// from each terminal, closed loop, with the counter deltas around it.
    fn oltp(&mut self, round: usize) -> Result<()> {
        let w = self.opt.workload;
        // which block of a traced run's batch records spans first
        let phase = self.opt.trace.then_some(round);
        let inputs: Vec<Vec<TxnInput>> = self
            .streams
            .iter_mut()
            .map(|s| s.batch(w.oltp_per_terminal))
            .collect();
        // what the engine and the host counted, before and after
        let counters = |db: &Database| {
            (
                db.log_io(),
                db.data_io(),
                db.pool_stats(),
                db.obs().flush_stall().sum,
                noise::minor_faults(),
            )
        };
        let (log0, data0, pool0, stall0, faults0) = counters(live(&self.db));
        let batch = if w.asof_beside_oltp {
            self.oltp_beside_asof(&inputs[0], phase)?
        } else {
            terminal(&self.db, self.opt, &self.finished).run_all(
                &inputs,
                [&mut self.tr, &mut self.tr2],
                true,
                phase,
            )?
        };
        let (log, data, pool, stall, faults) = counters(live(&self.db));
        let (log, data, pool) = (log.delta(log0), data.delta(data0), pool.delta(pool0));
        let quantile_of = |kind: TxnKind, q: f64| {
            stats::quantile(
                &stats::sorted(batch.samples.lat_us[kind as usize].clone()),
                q,
            )
        };
        self.out.batches.push(BatchSample {
            txns: (w.oltp_per_terminal * w.terminals) as u64,
            wall_s: batch.wall_s,
            trace_overhead_pct: batch.samples.by_side.as_ref().and_then(trace_overhead_pct),
            log_bytes: log.log_bytes_written,
            log_flushes: log.log_flushes,
            hits: pool.hits,
            misses: pool.misses,
            evictions: pool.evictions,
            page_reads: data.page_reads,
            page_writes: data.page_writes,
            minor_faults: faults - faults0,
            flush_stall_us: stall - stall0,
            new_order_us_p50: quantile_of(TxnKind::NewOrder, 0.50),
            new_order_us_p95: quantile_of(TxnKind::NewOrder, 0.95),
            payment_us_p50: quantile_of(TxnKind::Payment, 0.50),
        });
        self.out.terminals.absorb(batch.samples);
        self.out.ops.absorb(batch.ops);
        Ok(())
    }

    /// `asof_beside_oltp`'s batch: one terminal, and beside it, released at
    /// the same moment, the looper with one as-of cycle. Both are fixed work;
    /// the batch is sized to outlast the cycle, so that every as-of step runs
    /// beside the writer. The terminal is quiesced between any two of its
    /// transactions, so it records a mark itself every `MARK_EVERY` of them;
    /// that time is not batch time.
    fn oltp_beside_asof(
        &mut self,
        inputs: &[TxnInput],
        mut phase: Option<usize>,
    ) -> Result<BatchOutcome> {
        let db = live(&self.db);
        let terminal = terminal(&self.db, self.opt, &self.finished);
        let (marks, finished, corrupt) = (&self.marks, &self.finished, self.opt.corrupt_marks);
        let (tr, tr2) = (&mut self.tr, &mut self.tr2);
        let mut asof = AsofRunner {
            db,
            marks,
            finished,
            rng: &mut self.asof_rng,
            tr: tr2,
            out: &mut self.out.asof,
            ops: Ops::default(),
            seq: &mut self.asof_seq,
        };
        let (mut batch, mut samples) = (BatchOutcome::default(), TerminalSamples::default());
        let start = Barrier::new(2);
        let mut beside = (0.0, 0.0);
        std::thread::scope(|s| {
            let looper = s.spawn(|| {
                start.wait();
                let t0 = Instant::now();
                asof.cycle();
                (asof.ops, t0.elapsed().as_secs_f64())
            });
            start.wait();
            let batch0 = Instant::now();
            let mut marked: Result<()> = Ok(());
            let mut left = inputs.len();
            for chunk in inputs.chunks(spec::MARK_EVERY) {
                let t0 = Instant::now();
                phase = terminal.run_blocks(chunk, tr, phase, Some(&mut samples), &mut batch);
                batch.wall_s += t0.elapsed().as_secs_f64();
                left -= chunk.len();
                // The next round's scan looks SCAN_TXNS back, from NEAR_TXNS
                // past the end of this batch, and needs the tables' digests.
                let light = (left + spec::NEAR_TXNS as usize) != spec::SCAN_TXNS as usize;
                marked = marked.and_then(|()| {
                    marks.push(
                        take_mark(db, finished.load(Ordering::Acquire), light)?,
                        corrupt,
                    );
                    Ok(())
                });
            }
            let batch_s = batch0.elapsed().as_secs_f64();
            let (looper_ops, looper_s) = looper
                .join()
                .map_err(|_| Error::Internal("the as-of looper panicked".into()))?;
            batch.ops.absorb(looper_ops);
            beside = (looper_s, looper_s.min(batch_s));
            marked
        })?;
        batch.samples = samples;
        self.out.looper_s += beside.0;
        self.out.looper_beside_s += beside.1;
        Ok(batch)
    }

    /// `n` good transactions, split over the workload's terminals: they are
    /// operations, but they are not traced and their latencies stay out of
    /// the OLTP metrics.
    fn good(&mut self, n: usize) -> Result<()> {
        let terminals = self.streams.len();
        let inputs: Vec<Vec<TxnInput>> = self
            .streams
            .iter_mut()
            .enumerate()
            .map(|(t, s)| s.batch(n / terminals + usize::from(t < n % terminals)))
            .collect();
        let was_on = (self.tr.pause(), self.tr2.pause());
        let batch = terminal(&self.db, self.opt, &self.finished).run_all(
            &inputs,
            [&mut self.tr, &mut self.tr2],
            false,
            None,
        );
        self.tr.resume(was_on.0);
        self.tr2.resume(was_on.1);
        self.out.ops.absorb(batch?.ops);
        Ok(())
    }

    /// Leave one loser with writes in flight, crash, recover (the two timed
    /// together), and check that the tables are the committed prefix the
    /// round's mark recorded and that the loser is gone.
    fn restart(&mut self) -> Result<()> {
        let now = self.finished.load(Ordering::Acquire);
        let want = self
            .marks
            .newest()
            .filter(|m| m.txns == now)
            .and_then(|m| m.tables)
            .ok_or_else(|| {
                Error::Internal("restart must follow a mark at the same point".into())
            })?;
        let db = self
            .db
            .take()
            .expect("the database exists between restarts");
        // The pool dies with the crash and its counters with it.
        self.out.map_contended += db.pool_stats().map_contended;
        tick(&db);
        let tr = &mut self.tr;
        tr.enter(Name::StepRestart);
        let loser = tr.span(Name::BenchLoser, || -> Result<TxnId> {
            let txn = db.begin();
            tpcc::payment(&db, &txn, 1, 1, CustomerSelector::ById(1), 1.0)?;
            let line = NewOrderLine {
                item_id: 1,
                supply_w_id: 1,
                quantity: 1,
            };
            tpcc::new_order(&db, &txn, 1, 2, 2, &[line; 5])?;
            // Durable but uncommitted: the restart has to find and undo it.
            db.log().flush_to(db.log().tail_lsn());
            Ok(txn.id())
        });
        let t0 = Instant::now();
        let artifacts = tr.span(Name::CrashTeardown, || db.simulate_crash());
        tr.enter(Name::Recover);
        let io0 = self.fm.io_stats().snapshot();
        let recover0 = Instant::now();
        let recovered = Database::recover(artifacts);
        let recover_us = recover0.elapsed().as_micros() as u64;
        let io = self.fm.io_stats().snapshot().delta(io0);
        let ms = t0.elapsed().as_nanos() as f64 / 1e6;
        let report = recovered.as_ref().ok().and_then(|db| db.last_recovery());
        if let Some(r) = &report {
            tr.phases(&[
                (Name::RecoverScanRedo, r.analysis_us.max(r.redo_us) * 1_000),
                (Name::RecoverUndo, r.undo_us * 1_000),
            ]);
        }
        tr.exit();
        let db = match recovered {
            Ok(db) => db,
            Err(e) => {
                tr.exit();
                return Err(e);
            }
        };
        let check = tr.span(
            Name::BenchOracle,
            || -> Result<std::result::Result<(), String>> {
                let loser = loser?;
                let got = digest_tables(&db)?;
                let report = report.as_ref();
                Ok(if got != want {
                    Err(format!(
                        "tables after restart {got:?}, committed prefix {want:?}"
                    ))
                } else if !report.is_some_and(|r| r.loser_txns.contains(&loser)) {
                    Err(format!("restart did not report loser {loser}"))
                } else if report.is_some_and(|r| r.records_undone == 0) {
                    Err("restart undid nothing of the loser".into())
                } else {
                    Ok(())
                })
            },
        );
        tr.exit();
        if let Some(r) = &report {
            let s = &mut self.out.restart;
            let ms_of = |us: u64| us as f64 / 1e3;
            s.restart_ms.push(ms);
            s.analysis_ms.push(ms_of(r.analysis_us));
            s.redo_ms.push(ms_of(r.redo_us));
            s.undo_ms.push(ms_of(r.undo_us));
            s.unattributed_ms.push(ms_of(
                recover_us.saturating_sub(r.analysis_us.max(r.redo_us) + r.undo_us),
            ));
            s.records_scanned.push(r.records_scanned as f64);
            s.records_redone.push(r.records_redone as f64);
            s.records_undone.push(r.records_undone as f64);
            let workers = r.redone_per_worker.len().max(1) as f64;
            let mean = r.records_redone as f64 / workers;
            let max = r.redone_per_worker.iter().copied().max().unwrap_or(0) as f64;
            s.worker_skew
                .push(if mean > 0.0 { max / mean } else { 1.0 });
            s.page_reads += io.page_reads;
            s.read_ops += io.vectored_read_ops;
        }
        // recover() ends with a checkpoint of its own
        remember_checkpoint(&db, &mut self.cuts);
        self.db = Some(db);
        match check {
            Ok(c) => self.out.ops.check("restart", c),
            Err(e) => self.out.ops.fail(format!("restart: {e}")),
        }
        Ok(())
    }

    /// Commit one `bad_credit_batch`; returns its id and the rows before it.
    fn bad_batch(&mut self) -> Result<(TxnId, Vec<Row>)> {
        let db = self.db();
        let before = bad_customers(db)?;
        tick(db);
        let txn = db.begin();
        let id = txn.id();
        let damaged = tpcc::bad_credit_batch(db, &txn, spec::BAD_WAREHOUSE);
        let done = match damaged {
            Ok(_) => db.commit(txn),
            Err(e) => {
                let _ = db.rollback(txn);
                Err(e)
            }
        };
        self.finished.fetch_add(1, Ordering::Release);
        match done {
            Ok(()) => self.out.ops.ok(),
            Err(e) => self.out.ops.fail(format!("bad batch: {e}")),
        }
        Ok((id, before))
    }

    /// Flash the bad batch back under `ConflictPolicy::Skip` with the default
    /// `RepairConfig` (timed), then check the report's arithmetic and that
    /// every row nobody touched since is back to its image before the batch.
    fn flashback(&mut self, bad: TxnId, before: &[Row]) {
        let trace = self.opt.trace;
        let db = live(&self.db);
        tick(db);
        let retained_mib = db.log().retained_bytes() as f64 / (1u64 << 20) as f64;
        let tr = &mut self.tr;
        tr.enter(Name::StepFlashback);
        tr.enter(Name::Flashback);
        let t0 = Instant::now();
        let target = RepairTarget::Txns(BTreeSet::from([bad]));
        let report = flashback(db, &target, &RepairConfig::default());
        let ms = t0.elapsed().as_nanos() as f64 / 1e6;
        if trace {
            // The phases are the engine's own events; newest come first.
            let events = db.obs().events();
            let phase = |kind: EventKind| {
                events
                    .iter()
                    .find(|e| e.kind == kind)
                    .map_or(0, |e| e.dur_us)
            };
            let (h, p, a) = (
                phase(EventKind::RepairHarvest),
                phase(EventKind::RepairDiff),
                phase(EventKind::RepairApply),
            );
            tr.phases(&[
                (Name::RepairHarvest, h * 1_000),
                (Name::RepairPlan, p * 1_000),
                (Name::RepairApply, a * 1_000),
            ]);
            let s = &mut self.out.repair;
            s.harvest_ms.push(h as f64 / 1e3);
            s.plan_ms.push(p as f64 / 1e3);
            s.apply_ms.push(a as f64 / 1e3);
            if h > 0 {
                s.harvest_mib_per_s.push(retained_mib / (h as f64 / 1e6));
            }
        }
        tr.exit();
        self.finished.fetch_add(1, Ordering::Release);
        let check = tr.span(
            Name::BenchOracle,
            || -> Result<std::result::Result<(), String>> {
                let report: RepairReport = report?;
                let s = &mut self.out.repair;
                s.flashback_ms.push(ms);
                s.keys_examined.push(report.keys_examined as f64);
                s.rows_applied.push(report.applied as f64);
                s.conflicts_skipped
                    .push(report.skipped_conflicts.len() as f64);
                let skipped: HashSet<Vec<u8>> = report
                    .skipped_conflicts
                    .iter()
                    .map(|c| c.entry.key_bytes.clone())
                    .collect();
                let accounted = report.applied + report.noops + skipped.len();
                if report.keys_examined != before.len() || accounted != report.keys_examined {
                    return Ok(Err(format!(
                        "examined {} keys of {}, applied {} + noops {} + skipped {}",
                        report.keys_examined,
                        before.len(),
                        report.applied,
                        report.noops,
                        skipped.len()
                    )));
                }
                let info = db.table_info("customer")?;
                let after = bad_customers(db)?;
                for (was, is) in before.iter().zip(&after) {
                    if was != is && !skipped.contains(&info.key_bytes(was)?) {
                        return Ok(Err(format!(
                            "customer {:?} is {is:?}, was {was:?} before the bad batch",
                            &was[..3]
                        )));
                    }
                }
                Ok(if after.len() == before.len() {
                    Ok(())
                } else {
                    Err(format!(
                        "{} customers, {} before",
                        after.len(),
                        before.len()
                    ))
                })
            },
        );
        tr.exit();
        match check {
            Ok(c) => self.out.ops.check("flashback", c),
            Err(e) => self.out.ops.fail(format!("flashback: {e}")),
        }
    }

    /// The script's own checkpoint and retention pass, once a round: they
    /// bound the next restart's redo window and the retained log.
    ///
    /// `enforce_retention` cuts at the newest checkpoint older than the
    /// retention period, but the engine's checkpoint directory keeps only the
    /// two anchored checkpoints across a crash, so after each round's restart
    /// it finds none and cuts nothing. Until the engine rebuilds its
    /// directory, the script remembers where its own checkpoints began and
    /// cuts there itself: here no transaction is in flight, no snapshot is
    /// open and the checkpoint has just emptied the dirty-page table, so
    /// nothing older is needed.
    fn checkpoint(&mut self) -> Result<()> {
        let db = live(&self.db);
        let (tr, cuts) = (&mut self.tr, &mut self.cuts);
        tick(db);
        tr.enter(Name::StepCheckpoint);
        let done = tr.span(Name::Checkpoint, || db.checkpoint());
        tr.span(Name::Retention, || {
            db.enforce_retention();
            remember_checkpoint(db, cuts);
            let floor = db
                .clock()
                .now()
                .minus_micros(spec::RETENTION_TXNS * spec::SIM_US_PER_TXN);
            if let Some(&(_, cut)) = cuts.iter().rev().find(|(at, _)| *at <= floor) {
                db.log().truncate_before(cut);
                cuts.retain(|(_, begin)| *begin >= cut);
            }
        });
        tr.exit();
        done.map(|_| ())
    }
}
