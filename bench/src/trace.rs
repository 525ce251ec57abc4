//! Bench-side spans around the public calls into each layer.
//!
//! Every load-generating thread owns one [`Tracer`]: a pre-sized vector of
//! spans and a stack of the open ones. Nothing is shared and nothing is
//! written until the run ends. A span carries its name, start, end, parent
//! and the round number, which is the identifier all spans of one round
//! share. With tracing off `enter`/`exit` are one branch each.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

macro_rules! span_names {
    ($($variant:ident => $text:literal,)*) => {
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
        pub enum Name { $($variant,)* }
        impl Name {
            pub fn as_str(self) -> &'static str {
                match self { $(Name::$variant => $text,)* }
            }
        }
    };
}

span_names! {
    // step kinds: the roots, one self-time table each
    StepOltp => "oltp",
    StepAsofNear => "asof_near",
    StepAsofFar => "asof_far",
    StepAsofScan => "asof_scan",
    StepFlashback => "flashback",
    StepRestart => "restart",
    StepCheckpoint => "checkpoint",
    // transactions
    TxnNewOrder => "tpcc.new_order",
    TxnPayment => "tpcc.payment",
    TxnOrderStatus => "tpcc.order_status",
    TxnDelivery => "tpcc.delivery",
    TxnStockLevel => "tpcc.stock_level",
    TxnBody => "core.txn_body",
    Commit => "core.commit",
    Rollback => "core.rollback",
    Checkpoint => "core.checkpoint",
    Retention => "core.enforce_retention",
    // as-of
    SnapCreate => "snapshot.create",
    SnapFirstQuery => "snapshot.first_query",
    SnapWarmQueries => "snapshot.warm_queries",
    SnapScanAll => "snapshot.scan_all",
    SnapUndoWait => "snapshot.undo_wait",
    SnapDrop => "snapshot.drop",
    // repair: one public call; its phases are the engine's own events
    Flashback => "repair.flashback",
    RepairHarvest => "repair.harvest",
    RepairPlan => "repair.plan",
    RepairApply => "repair.apply",
    // restart: two public calls; recover's phases are its own report
    CrashTeardown => "recovery.crash_teardown",
    Recover => "recovery.recover",
    RecoverScanRedo => "recovery.scan_redo",
    RecoverUndo => "recovery.undo",
    // the bench's own work inside a step
    BenchOracle => "bench.oracle",
    BenchLoser => "bench.loser",
}

pub const STEP_KINDS: [Name; 7] = [
    Name::StepOltp,
    Name::StepAsofNear,
    Name::StepAsofFar,
    Name::StepAsofScan,
    Name::StepFlashback,
    Name::StepRestart,
    Name::StepCheckpoint,
];

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy)]
pub struct Span {
    pub name: Name,
    pub parent: u32,
    pub round: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    round: u32,
    pub thread: u32,
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(epoch: Instant, thread: u32, capacity: usize) -> Tracer {
        Tracer {
            on: false,
            epoch,
            round: 0,
            thread,
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
        }
    }

    /// Switch recording and stamp the round the following spans belong to.
    pub fn set(&mut self, on: bool, round: u32) {
        debug_assert!(self.open.is_empty());
        self.on = on;
        self.round = round;
    }

    /// Stop recording; returns whether it was on, for `resume`.
    pub fn pause(&mut self) -> bool {
        std::mem::replace(&mut self.on, false)
    }

    pub fn resume(&mut self, on: bool) {
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn clear(&mut self) {
        self.spans.clear();
    }

    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    #[inline]
    pub fn enter(&mut self, name: Name) {
        if self.on {
            let idx = self.spans.len() as u32;
            let start_ns = self.now_ns();
            self.spans.push(Span {
                name,
                parent: self.open.last().copied().unwrap_or(NO_PARENT),
                round: self.round,
                start_ns,
                end_ns: start_ns,
            });
            self.open.push(idx);
        }
    }

    #[inline]
    pub fn exit(&mut self) {
        if self.on {
            let end_ns = self.now_ns();
            if let Some(idx) = self.open.pop() {
                self.spans[idx as usize].end_ns = end_ns;
            }
        }
    }

    /// Run `f` inside a span.
    #[inline]
    pub fn span<R>(&mut self, name: Name, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Add finished children of the innermost open span, laid end to end from
    /// its start: used where the engine reports a call's phases itself (as
    /// durations) and the bench cannot wrap them.
    pub fn phases(&mut self, phases: &[(Name, u64)]) {
        if !self.on {
            return;
        }
        let Some(&parent) = self.open.last() else {
            return;
        };
        let mut at = self.spans[parent as usize].start_ns;
        for &(name, dur_ns) in phases {
            self.spans.push(Span {
                name,
                parent,
                round: self.round,
                start_ns: at,
                end_ns: at + dur_ns,
            });
            at += dur_ns;
        }
    }
}

/// One row of a step's self-time table.
pub struct SelfTime {
    pub name: &'static str,
    pub calls: u64,
    pub self_ns: u64,
}

/// Self time per span name under each step kind. A span's self time is its
/// duration minus its children's; the step root's own self time is the
/// `unattributed` row, so the rows of a table sum to the step's wall time
/// exactly.
pub fn self_time_tables(tracers: &[&Tracer]) -> Vec<(Name, u64, Vec<SelfTime>)> {
    let mut out = Vec::new();
    for step in STEP_KINDS {
        let mut wall = 0u64;
        let mut rows: BTreeMap<Name, (u64, u64)> = BTreeMap::new();
        for t in tracers {
            let mut child_ns = vec![0u64; t.spans.len()];
            let mut root = vec![NO_PARENT; t.spans.len()];
            for (i, s) in t.spans.iter().enumerate() {
                if s.parent == NO_PARENT {
                    root[i] = i as u32;
                } else {
                    // parents are always pushed before their children
                    root[i] = root[s.parent as usize];
                    child_ns[s.parent as usize] += s.dur_ns();
                }
            }
            for (i, s) in t.spans.iter().enumerate() {
                if t.spans[root[i] as usize].name != step {
                    continue;
                }
                if s.parent == NO_PARENT {
                    wall += s.dur_ns();
                }
                let e = rows.entry(s.name).or_default();
                e.0 += 1;
                e.1 += s.dur_ns().saturating_sub(child_ns[i]);
            }
        }
        if wall == 0 {
            continue;
        }
        let mut table: Vec<SelfTime> = rows
            .into_iter()
            .map(|(name, (calls, self_ns))| SelfTime {
                name: if name == step {
                    "unattributed"
                } else {
                    name.as_str()
                },
                calls,
                self_ns,
            })
            .collect();
        table.sort_by_key(|row| std::cmp::Reverse(row.self_ns));
        out.push((step, wall, table));
    }
    out
}

pub fn print_self_time_tables(tables: &[(Name, u64, Vec<SelfTime>)]) {
    for (step, wall, rows) in tables {
        println!(
            "-- self time: {} (wall {:.3} ms) --",
            step.as_str(),
            *wall as f64 / 1e6
        );
        println!(
            "{:<28} {:>9} {:>12} {:>7}",
            "span", "calls", "self ms", "share"
        );
        for r in rows {
            println!(
                "{:<28} {:>9} {:>12.3} {:>6.1}%",
                r.name,
                r.calls,
                r.self_ns as f64 / 1e6,
                100.0 * r.self_ns as f64 / *wall as f64
            );
        }
    }
}

/// The span file: one array per thread, parents by index within the thread.
pub fn spans_json(tracers: &[&Tracer]) -> Json {
    Json::Arr(
        tracers
            .iter()
            .map(|t| {
                Json::obj([
                    ("thread", Json::Num(t.thread as f64)),
                    (
                        "spans",
                        Json::Arr(
                            t.spans
                                .iter()
                                .map(|s| {
                                    Json::obj([
                                        ("name", Json::Str(s.name.as_str().into())),
                                        ("start_ns", Json::Num(s.start_ns as f64)),
                                        ("end_ns", Json::Num(s.end_ns as f64)),
                                        (
                                            "parent",
                                            if s.parent == NO_PARENT {
                                                Json::Null
                                            } else {
                                                Json::Num(s.parent as f64)
                                            },
                                        ),
                                        ("round", Json::Num(s.round as f64)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
}
