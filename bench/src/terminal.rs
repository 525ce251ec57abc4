//! A terminal: one closed-loop client running generated transactions.

use crate::gen::{Customer, TxnInput, TxnKind};
use crate::samples::{Ops, TerminalSamples, SIDE_KINDS};
use crate::spec;
use crate::trace::{Name, Tracer};
use rewind_core::{Database, Error, Result, Txn};
use rewind_tpcc as tpcc;
use rewind_tpcc::txns::CustomerSelector;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

fn txn_span(kind: TxnKind) -> Name {
    match kind {
        TxnKind::NewOrder => Name::TxnNewOrder,
        TxnKind::Payment => Name::TxnPayment,
        TxnKind::OrderStatus => Name::TxnOrderStatus,
        TxnKind::Delivery => Name::TxnDelivery,
        TxnKind::StockLevel => Name::TxnStockLevel,
    }
}

fn txn_body(db: &Database, txn: &Txn, input: &TxnInput, districts: u64) -> Result<()> {
    match input {
        TxnInput::NewOrder { w, d, c, lines, .. } => {
            tpcc::new_order(db, txn, *w, *d, *c, lines).map(|_| ())
        }
        TxnInput::Payment {
            w,
            d,
            customer,
            amount,
        } => {
            let selector = match customer {
                Customer::Id(c) => CustomerSelector::ById(*c),
                Customer::LastName(name) => CustomerSelector::ByLastName(name),
            };
            tpcc::payment(db, txn, *w, *d, selector, *amount)
        }
        TxnInput::OrderStatus { w, d, c } => {
            tpcc::order_status(db, txn, *w, *d, CustomerSelector::ById(*c)).map(|_| ())
        }
        TxnInput::Delivery { w, carrier } => {
            tpcc::delivery(db, txn, *w, *carrier, districts).map(|_| ())
        }
        TxnInput::StockLevel { w, d, threshold } => {
            tpcc::stock_level(db, txn, *w, *d, *threshold).map(|_| ())
        }
    }
}

/// What a terminal needs besides its inputs.
pub struct Terminal<'a> {
    pub db: &'a Database,
    pub districts: u64,
    /// Transactions finished since the database was created.
    pub finished: &'a AtomicU64,
}

impl Terminal<'_> {
    /// One transaction, closed loop: timed from `begin()` until `commit` or
    /// `rollback` returns, deadlock and timeout retries included. The
    /// simulated clock advances before it, so that a mark taken after it
    /// finishes is stamped no earlier than its commit and earlier than the
    /// next one's.
    pub fn run(
        &self,
        input: &TxnInput,
        tr: &mut Tracer,
        out: Option<&mut TerminalSamples>,
        ops: &mut Ops,
    ) {
        let db = self.db;
        db.clock().advance_micros(spec::SIM_US_PER_TXN);
        let poisoned = matches!(input, TxnInput::NewOrder { poisoned: true, .. });
        let mut retries = 0u64;
        let mut flushed = false;
        tr.enter(txn_span(input.kind()));
        let t0 = Instant::now();
        let outcome = loop {
            tr.enter(Name::TxnBody);
            let txn = db.begin();
            let body = txn_body(db, &txn, input, self.districts);
            tr.exit();
            match body {
                Ok(()) => {
                    flushed = txn.last_lsn().is_valid();
                    break tr.span(Name::Commit, || db.commit(txn));
                }
                Err(Error::KeyNotFound) if poisoned => {
                    flushed = true;
                    break tr.span(Name::Rollback, || db.rollback(txn));
                }
                Err(Error::Deadlock(_)) | Err(Error::LockTimeout(_)) => {
                    retries += 1;
                    if let Err(e) = db.rollback(txn) {
                        break Err(e);
                    }
                }
                Err(e) => {
                    let _ = db.rollback(txn);
                    break Err(e);
                }
            }
        };
        let us = t0.elapsed().as_nanos() as f64 / 1e3;
        tr.exit();
        self.finished.fetch_add(1, Ordering::Release);
        match outcome {
            Ok(()) => ops.ok(),
            Err(e) => ops.fail(format!("{:?} transaction: {e}", input.kind())),
        }
        if let Some(out) = out {
            out.lat_us[input.kind() as usize].push(us);
            if let (Some(sides), Some(kind)) = (
                &mut out.by_side,
                SIDE_KINDS.iter().position(|k| *k == input.kind()),
            ) {
                sides[tr.is_on() as usize][kind].push(us);
            }
            out.retries += retries;
            out.flushing_completions += flushed as u64;
        }
    }
}

/// Transactions between two switches of the tracer in a traced run.
pub const TRACE_BLOCK: usize = 50;

/// What a group of terminals saw, and the time from their common start until
/// the slowest was done.
#[derive(Default)]
pub struct BatchOutcome {
    pub samples: TerminalSamples,
    pub ops: Ops,
    pub wall_s: f64,
}

impl Terminal<'_> {
    /// Run `inputs` in blocks of `TRACE_BLOCK`, each block one `oltp` step.
    /// In a traced run (`phase` is given) every other block records spans,
    /// starting with block `phase`, and latencies are also kept by side:
    /// traced and untraced transactions then share the process, the database
    /// and the second, and `obs.trace_overhead_pct` compares thousands of
    /// each. Returns the phase the next block continues with.
    pub fn run_blocks(
        &self,
        inputs: &[TxnInput],
        tr: &mut Tracer,
        mut phase: Option<usize>,
        mut sample: Option<&mut TerminalSamples>,
        out: &mut BatchOutcome,
    ) -> Option<usize> {
        if let (Some(_), Some(samples)) = (phase, sample.as_deref_mut()) {
            samples.by_side.get_or_insert_with(Default::default);
        }
        for block in inputs.chunks(TRACE_BLOCK) {
            tr.resume(phase.is_some_and(|p| p % 2 == 0));
            tr.enter(Name::StepOltp);
            for input in block {
                self.run(input, tr, sample.as_deref_mut(), &mut out.ops);
            }
            tr.exit();
            phase = phase.map(|p| p + 1);
        }
        tr.resume(false);
        phase
    }

    /// Run one list of inputs per terminal: the first on the calling thread,
    /// a second, if there is one, on a thread of its own, both released
    /// together. `sample` keeps the latencies; `phase` is `run_blocks`'s.
    pub fn run_all(
        &self,
        inputs: &[Vec<TxnInput>],
        tracers: [&mut Tracer; 2],
        sample: bool,
        phase: Option<usize>,
    ) -> Result<BatchOutcome> {
        let start = Barrier::new(inputs.len().min(2));
        let run_one = |inputs: &[TxnInput], tr: &mut Tracer| {
            let (mut out, mut samples) = (BatchOutcome::default(), TerminalSamples::default());
            start.wait();
            let t0 = Instant::now();
            self.run_blocks(inputs, tr, phase, sample.then_some(&mut samples), &mut out);
            out.wall_s = t0.elapsed().as_secs_f64();
            out.samples = samples;
            out
        };
        let [tr, tr2] = tracers;
        match inputs {
            [only] => Ok(run_one(only, tr)),
            [first, second] => {
                let (mut mine, other) = std::thread::scope(|s| {
                    let other = s.spawn(|| run_one(second, tr2));
                    (run_one(first, tr), other.join())
                });
                let other =
                    other.map_err(|_| Error::Internal("the second terminal panicked".into()))?;
                mine.samples.absorb(other.samples);
                mine.ops.absorb(other.ops);
                mine.wall_s = mine.wall_s.max(other.wall_s);
                Ok(mine)
            }
            _ => Err(Error::Internal("one or two terminals".into())),
        }
    }
}
