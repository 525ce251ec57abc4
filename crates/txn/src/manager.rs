//! The transaction manager: ids, states and the active-transaction table.

use parking_lot::Mutex;
use rewind_common::{Lsn, TxnId};
use rewind_wal::{TxnChain, TxnTableEntry};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

/// Lifecycle state of a transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum TxnState {
    /// Running; may log records.
    Active = 0,
    /// Commit record durable; locks may be released.
    Committed = 1,
    /// Rolled back.
    Aborted = 2,
}

/// Shared per-transaction state.
pub struct TxnShared {
    /// The transaction id.
    pub id: TxnId,
    /// The transaction's log chain. Only the log's transaction-record
    /// appends move it.
    pub chain: TxnChain,
    state: AtomicU8,
}

impl TxnShared {
    fn new(id: TxnId) -> Self {
        TxnShared {
            id,
            chain: TxnChain::default(),
            state: AtomicU8::new(TxnState::Active as u8),
        }
    }

    /// Current lifecycle state.
    pub fn state(&self) -> TxnState {
        match self.state.load(Ordering::Acquire) {
            0 => TxnState::Active,
            1 => TxnState::Committed,
            _ => TxnState::Aborted,
        }
    }

    /// Transition the lifecycle state.
    pub fn set_state(&self, s: TxnState) {
        self.state.store(s as u8, Ordering::Release);
    }
}

/// Allocates transaction ids and tracks the active-transaction table.
pub struct TxnManager {
    next_id: AtomicU64,
    active: Mutex<HashMap<u64, Arc<TxnShared>>>,
}

impl TxnManager {
    /// A fresh manager; ids start at 1.
    pub fn new() -> Self {
        TxnManager {
            next_id: AtomicU64::new(1),
            active: Mutex::new(HashMap::new()),
        }
    }

    /// Begin a transaction: allocate an id and register it active.
    pub fn begin(&self) -> Arc<TxnShared> {
        let id = TxnId(self.next_id.fetch_add(1, Ordering::AcqRel));
        let shared = Arc::new(TxnShared::new(id));
        self.active.lock().insert(id.0, shared.clone());
        shared
    }

    /// Remove a finished transaction from the active table.
    pub fn finish(&self, id: TxnId) {
        self.active.lock().remove(&id.0);
    }

    /// Register a transaction with a pre-existing id, its chain's head at
    /// `last_lsn` (crash restart rebuilds loser transactions found in the
    /// log).
    pub fn adopt(&self, id: TxnId, last_lsn: Lsn) -> Arc<TxnShared> {
        let shared = Arc::new(TxnShared::new(id));
        shared.chain.rewind_to(last_lsn);
        self.active.lock().insert(id.0, shared.clone());
        self.bump_next_id(id);
        shared
    }

    /// Whether `id` is currently active.
    pub fn is_active(&self, id: TxnId) -> bool {
        self.active.lock().contains_key(&id.0)
    }

    /// Number of active transactions.
    pub fn active_count(&self) -> usize {
        self.active.lock().len()
    }

    /// Snapshot the active-transaction table for a checkpoint record: open
    /// chains only. A transaction whose `Commit` or `End` is in the log is
    /// over, even before it leaves the table, and the log closes its chain
    /// in the same writer-mutex hold that appends that record — so a
    /// table captured after a checkpoint's begin marker never lists a
    /// transaction whose `Commit` or `End` precedes the marker.
    pub fn active_table(&self) -> Vec<TxnTableEntry> {
        let mut v: Vec<TxnTableEntry> = self
            .active
            .lock()
            .values()
            .filter(|t| !t.chain.is_closed())
            .map(|t| TxnTableEntry {
                txn: t.id,
                first_lsn: t.chain.first_lsn(),
                last_lsn: t.chain.last_lsn(),
            })
            .collect();
        v.sort_by_key(|e| e.txn);
        v
    }

    /// The earliest first-LSN among active transactions (log truncation must
    /// not pass it).
    pub fn oldest_active_first_lsn(&self) -> Option<Lsn> {
        self.active
            .lock()
            .values()
            .map(|t| t.chain.first_lsn())
            .filter(|l| l.is_valid())
            .min()
    }

    /// Ensure future ids exceed `floor` (called after crash recovery, which
    /// may have observed ids in the log).
    pub fn bump_next_id(&self, floor: TxnId) {
        self.next_id.fetch_max(floor.0 + 1, Ordering::AcqRel);
    }
}

impl Default for TxnManager {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rewind_wal::{LogConfig, LogManager, LogPayloadView, LogRecord};

    #[test]
    fn begin_finish_lifecycle() {
        let tm = TxnManager::new();
        let t1 = tm.begin();
        let t2 = tm.begin();
        assert_ne!(t1.id, t2.id);
        assert!(tm.is_active(t1.id));
        assert_eq!(tm.active_count(), 2);
        tm.finish(t1.id);
        assert!(!tm.is_active(t1.id));
        assert_eq!(tm.active_count(), 1);
    }

    /// Append `payload` onto `t`'s chain; returns its LSN.
    fn log(log: &LogManager, t: &TxnShared, payload: LogPayloadView<'static>) -> Lsn {
        log.append_batch(&t.chain, &mut [LogRecord::marker(t.id, payload)])
            .start
    }

    #[test]
    fn lsn_tracking() {
        let wal = LogManager::new(LogConfig::default());
        let tm = TxnManager::new();
        let t = tm.begin();
        assert_eq!(t.chain.first_lsn(), Lsn::NULL);
        let first = log(&wal, &t, LogPayloadView::Abort);
        let second = log(&wal, &t, LogPayloadView::Abort);
        assert_eq!(t.chain.first_lsn(), first, "first LSN sticks");
        assert_eq!(t.chain.last_lsn(), second);
        let back = wal.get_record_ref(second).unwrap().header().unwrap();
        assert_eq!(back.prev_lsn, first, "the append chained the record");
        t.chain.rewind_to(first);
        assert_eq!(t.chain.last_lsn(), first);
        assert!(!t.chain.is_closed());
        let end = log(&wal, &t, LogPayloadView::End);
        assert_eq!((t.chain.last_lsn(), t.chain.is_closed()), (end, true));
    }

    #[test]
    fn att_snapshot_sorted_and_complete() {
        let wal = LogManager::new(LogConfig::default());
        let tm = TxnManager::new();
        let a = tm.begin();
        let b = tm.begin();
        let b_first = log(&wal, &b, LogPayloadView::Abort);
        let a_first = log(&wal, &a, LogPayloadView::Abort);
        let att = tm.active_table();
        assert_eq!(att.len(), 2);
        assert!(att[0].txn < att[1].txn);
        assert_eq!(tm.oldest_active_first_lsn(), Some(b_first));
        // A closed chain leaves the ATT before its transaction leaves the
        // table.
        log(&wal, &b, LogPayloadView::End);
        assert_eq!(
            tm.active_table().iter().map(|e| e.txn).collect::<Vec<_>>(),
            [a.id]
        );
        tm.finish(b.id);
        assert_eq!(tm.oldest_active_first_lsn(), Some(a_first));
        tm.finish(a.id);
        assert_eq!(tm.oldest_active_first_lsn(), None);
    }

    #[test]
    fn state_transitions() {
        let tm = TxnManager::new();
        let t = tm.begin();
        assert_eq!(t.state(), TxnState::Active);
        t.set_state(TxnState::Committed);
        assert_eq!(t.state(), TxnState::Committed);
        t.set_state(TxnState::Aborted);
        assert_eq!(t.state(), TxnState::Aborted);
    }

    #[test]
    fn id_floor_after_recovery() {
        let tm = TxnManager::new();
        tm.bump_next_id(TxnId(500));
        let t = tm.begin();
        assert!(t.id.0 > 500);
    }
}
