//! Lock-free structured event ring.
//!
//! The ring records one typed [`Event`] per engine action of interest —
//! a commit becoming durable, a group-commit follower waking, a buffer
//! miss being filled — into a fixed pool of pre-allocated slots. The hot
//! path is a handful of relaxed atomic stores into the calling thread's
//! stripe: no locks, no allocation, no syscalls. When the ring fills, the
//! oldest events are overwritten (diagnostics favour recency); a
//! monotonically increasing per-slot sequence stamp lets the reader detect
//! and skip slots torn by a concurrent writer instead of returning garbage.
//!
//! The ring is *best effort by design*: under stripe sharing (more threads
//! than stripes) two writers can claim slots concurrently and a reader may
//! drop a torn slot. Exact accounting lives in the counters and histograms;
//! the ring answers "what just happened, in what order, how long did it
//! take" — the question a counter cannot.

use std::sync::atomic::{AtomicU64, Ordering};

use rewind_common::thread_stripe;

/// Number of ring stripes. A power of two; the per-thread stripe pick is
/// shared with [`rewind_common::StripedCounters`] (same thread → same
/// stripe index, taken modulo this count).
pub const RING_STRIPES: usize = 8;

/// The type of an engine event. Discriminants are stable (stored in ring
/// slots as raw `u64`s) — append new kinds, never renumber.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// A transaction entered [`commit`](../core). `lsn` = commit LSN.
    CommitBegin = 1,
    /// A commit's log range is durable. `dur_us` = begin→durable latency.
    CommitDurable = 2,
    /// A group-commit leader performed a physical flush for the group.
    /// `lsn` = flushed-up-to byte offset, `dur_us` = leader flush time.
    GroupLeaderFlush = 3,
    /// A group-commit follower parked and was served by a leader's flush.
    /// `dur_us` = time parked.
    GroupFollowerWait = 4,
    /// One physical log flush (leader or direct). `lsn` = flushed-up-to
    /// offset, `arg` = bytes newly durable.
    LogFlush = 5,
    /// Checkpoint begin record appended. `lsn` = begin LSN.
    CheckpointBegin = 6,
    /// Checkpoint end record appended. `lsn` = end LSN, `dur_us` = span.
    CheckpointEnd = 7,
    /// Buffer pool miss: page read from media. `arg` = page id,
    /// `dur_us` = fill time.
    BufferMiss = 8,
    /// Buffer pool evicted a page frame. `arg` = page id.
    BufferEvict = 9,
    /// A torn/corrupt page was salvaged from log history. `arg` = page id.
    PageSalvage = 10,
    /// As-of snapshot began preparing a page version. `arg` = page id.
    AsOfPrepareStart = 11,
    /// As-of page version prepared. `arg` = page id, `dur_us` = prepare
    /// latency.
    AsOfPrepareDone = 12,
    /// One bulk as-of scan batch finished. `arg` = pages in batch,
    /// `dur_us` = batch time.
    ScanBatch = 13,
    /// Repair: harvest phase done. `dur_us` = phase time.
    RepairHarvest = 14,
    /// Repair: witness snapshot created. `lsn` = witness LSN.
    RepairWitness = 15,
    /// Repair: diff/plan phase done. `arg` = plan row count.
    RepairDiff = 16,
    /// Repair: apply phase done. `arg` = rows applied.
    RepairApply = 17,
    /// Recovery analysis pass done. `lsn` = redo start, `arg` = records
    /// scanned.
    RecoveryAnalysis = 18,
    /// Recovery redo pass done. `arg` = records applied.
    RecoveryRedo = 19,
    /// Recovery undo pass done. `arg` = records undone.
    RecoveryUndo = 20,
}

impl EventKind {
    fn from_u64(v: u64) -> Option<EventKind> {
        use EventKind::*;
        Some(match v {
            1 => CommitBegin,
            2 => CommitDurable,
            3 => GroupLeaderFlush,
            4 => GroupFollowerWait,
            5 => LogFlush,
            6 => CheckpointBegin,
            7 => CheckpointEnd,
            8 => BufferMiss,
            9 => BufferEvict,
            10 => PageSalvage,
            11 => AsOfPrepareStart,
            12 => AsOfPrepareDone,
            13 => ScanBatch,
            14 => RepairHarvest,
            15 => RepairWitness,
            16 => RepairDiff,
            17 => RepairApply,
            18 => RecoveryAnalysis,
            19 => RecoveryRedo,
            20 => RecoveryUndo,
            _ => return None,
        })
    }

    /// Stable lower-case name used in text renderings.
    pub fn name(self) -> &'static str {
        use EventKind::*;
        match self {
            CommitBegin => "commit_begin",
            CommitDurable => "commit_durable",
            GroupLeaderFlush => "group_leader_flush",
            GroupFollowerWait => "group_follower_wait",
            LogFlush => "log_flush",
            CheckpointBegin => "checkpoint_begin",
            CheckpointEnd => "checkpoint_end",
            BufferMiss => "buffer_miss",
            BufferEvict => "buffer_evict",
            PageSalvage => "page_salvage",
            AsOfPrepareStart => "asof_prepare_start",
            AsOfPrepareDone => "asof_prepare_done",
            ScanBatch => "scan_batch",
            RepairHarvest => "repair_harvest",
            RepairWitness => "repair_witness",
            RepairDiff => "repair_diff",
            RepairApply => "repair_apply",
            RecoveryAnalysis => "recovery_analysis",
            RecoveryRedo => "recovery_redo",
            RecoveryUndo => "recovery_undo",
        }
    }
}

/// One decoded event as read back from the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// Microseconds since the process-wide observability epoch
    /// (`Obs::now_us`) at which the event was recorded.
    pub at_us: u64,
    /// LSN payload (0 when the kind carries none).
    pub lsn: u64,
    /// Kind-specific argument (page id, record count, byte count; 0 when
    /// unused).
    pub arg: u64,
    /// Duration payload in microseconds (0 for instantaneous events).
    pub dur_us: u64,
}

/// One ring slot. The `stamp` is 0 while a writer is mid-store and
/// `1 + sequence` once the slot's fields are complete; a reader re-checks
/// the stamp after loading the fields and discards the slot if it moved.
struct Slot {
    stamp: AtomicU64,
    kind: AtomicU64,
    at_us: AtomicU64,
    lsn: AtomicU64,
    arg: AtomicU64,
    dur_us: AtomicU64,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            stamp: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            at_us: AtomicU64::new(0),
            lsn: AtomicU64::new(0),
            arg: AtomicU64::new(0),
            dur_us: AtomicU64::new(0),
        }
    }
}

/// One stripe: a private head counter plus a power-of-two slot array.
/// Cache-line aligned so two stripes' heads never share a line.
#[repr(align(128))]
struct RingStripe {
    head: AtomicU64,
    slots: Box<[Slot]>,
}

/// Fixed-capacity, overwrite-oldest, per-thread-striped event ring.
pub struct EventRing {
    stripes: Box<[RingStripe]>,
    /// Per-stripe capacity; power of two, so `seq & mask` picks the slot.
    mask: u64,
}

impl EventRing {
    /// A ring holding up to `capacity` events in total (rounded up so each
    /// of the [`RING_STRIPES`] stripes gets a power-of-two share, minimum 8
    /// slots per stripe).
    pub fn new(capacity: usize) -> EventRing {
        let per_stripe = (capacity / RING_STRIPES).next_power_of_two().max(8);
        let stripes = (0..RING_STRIPES)
            .map(|_| RingStripe {
                head: AtomicU64::new(0),
                slots: (0..per_stripe).map(|_| Slot::new()).collect(),
            })
            .collect();
        EventRing {
            stripes,
            mask: per_stripe as u64 - 1,
        }
    }

    /// Slots per stripe (the overwrite horizon for a single-threaded
    /// recording sequence).
    pub fn stripe_capacity(&self) -> usize {
        self.mask as usize + 1
    }

    /// Total slots across stripes.
    pub fn capacity(&self) -> usize {
        self.stripe_capacity() * RING_STRIPES
    }

    /// Record one event into the calling thread's stripe. Lock-free and
    /// allocation-free: one `fetch_add` to claim a sequence number, six
    /// relaxed/release stores.
    #[inline]
    pub fn record(&self, kind: EventKind, at_us: u64, lsn: u64, arg: u64, dur_us: u64) {
        let stripe = &self.stripes[thread_stripe() & (RING_STRIPES - 1)];
        let seq = stripe.head.fetch_add(1, Ordering::Relaxed);
        let slot = &stripe.slots[(seq & self.mask) as usize];
        // Mark the slot in-progress, publish the fields, then stamp it
        // complete. A reader seeing stamp != seq+1 (or 0) skips the slot.
        slot.stamp.store(0, Ordering::Release);
        slot.kind.store(kind as u64, Ordering::Relaxed);
        slot.at_us.store(at_us, Ordering::Relaxed);
        slot.lsn.store(lsn, Ordering::Relaxed);
        slot.arg.store(arg, Ordering::Relaxed);
        slot.dur_us.store(dur_us, Ordering::Relaxed);
        slot.stamp.store(seq + 1, Ordering::Release);
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.head.load(Ordering::Relaxed))
            .sum()
    }

    /// Events lost to overwrite: for each stripe, everything its head has
    /// advanced past its capacity.
    pub fn dropped(&self) -> u64 {
        let cap = self.mask + 1;
        self.stripes
            .iter()
            .map(|s| s.head.load(Ordering::Relaxed).saturating_sub(cap))
            .sum()
    }

    /// Snapshot the ring's current contents, oldest-first within each
    /// stripe, then merged across stripes by timestamp. Slots torn by a
    /// concurrent writer are skipped.
    pub fn events(&self) -> Vec<Event> {
        let cap = self.mask + 1;
        let mut out = Vec::new();
        for stripe in self.stripes.iter() {
            let head = stripe.head.load(Ordering::Acquire);
            let start = head.saturating_sub(cap);
            for seq in start..head {
                let slot = &stripe.slots[(seq & self.mask) as usize];
                let stamp = slot.stamp.load(Ordering::Acquire);
                if stamp != seq + 1 {
                    continue; // torn or already overwritten
                }
                let kind = slot.kind.load(Ordering::Relaxed);
                let at_us = slot.at_us.load(Ordering::Relaxed);
                let lsn = slot.lsn.load(Ordering::Relaxed);
                let arg = slot.arg.load(Ordering::Relaxed);
                let dur_us = slot.dur_us.load(Ordering::Relaxed);
                // Re-check: if a writer lapped us mid-read the stamp moved.
                if slot.stamp.load(Ordering::Acquire) != seq + 1 {
                    continue;
                }
                if let Some(kind) = EventKind::from_u64(kind) {
                    out.push(Event {
                        kind,
                        at_us,
                        lsn,
                        arg,
                        dur_us,
                    });
                }
            }
        }
        out.sort_by_key(|e| e.at_us);
        out
    }
}

impl std::fmt::Debug for EventRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRing")
            .field("capacity", &self.capacity())
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_read_back_in_order() {
        let ring = EventRing::new(1024);
        for i in 0..10u64 {
            ring.record(EventKind::LogFlush, i, i * 100, i, 0);
        }
        let events = ring.events();
        assert_eq!(events.len(), 10);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.kind, EventKind::LogFlush);
            assert_eq!(e.at_us, i as u64);
            assert_eq!(e.lsn, i as u64 * 100);
        }
        assert_eq!(ring.recorded(), 10);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn overwrites_oldest_when_full() {
        let ring = EventRing::new(64); // 8 slots per stripe
        let per_stripe = ring.stripe_capacity() as u64;
        // Single thread → single stripe; write 3 full generations.
        let total = per_stripe * 3;
        for i in 0..total {
            ring.record(EventKind::CommitDurable, i, 0, i, 0);
        }
        let events = ring.events();
        assert_eq!(events.len(), per_stripe as usize);
        // Only the newest generation survives.
        for e in &events {
            assert!(e.at_us >= total - per_stripe);
        }
        assert_eq!(ring.recorded(), total);
        assert_eq!(ring.dropped(), total - per_stripe);
    }

    #[test]
    fn concurrent_writers_never_produce_garbage_kinds() {
        let ring = std::sync::Arc::new(EventRing::new(256));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let ring = ring.clone();
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        ring.record(EventKind::BufferMiss, t * 10_000 + i, 0, i, 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ring.recorded(), 8 * 1000);
        // Every retained, untorn slot decodes to the kind that was written.
        for e in ring.events() {
            assert_eq!(e.kind, EventKind::BufferMiss);
            assert_eq!(e.dur_us, 1);
        }
    }
}
