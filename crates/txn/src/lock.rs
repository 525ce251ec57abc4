//! The lock manager.
//!
//! Lock keys are `(object, row-key-bytes)`; an empty row key addresses the
//! table itself. Modes form the classic hierarchy (IS, IX, S, SIX, X) so
//! that DML can take intent locks on tables plus row locks, while DDL takes
//! the whole table exclusively.
//!
//! Blocking is implemented with a single state mutex and condition variable:
//! waiters enqueue FIFO (upgrades jump the queue), re-evaluate on every
//! release, detect deadlocks by walking the waits-for graph at wait time,
//! and give up after a configurable timeout.

use parking_lot::{Condvar, Mutex};
use rewind_common::{Error, ObjectId, Result, TxnId};
use std::collections::{HashMap, HashSet, VecDeque};
use std::time::Duration;

/// A lock mode in the standard hierarchical lattice.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Intent shared (reader descending to row locks).
    IS,
    /// Intent exclusive (writer descending to row locks).
    IX,
    /// Shared.
    S,
    /// Shared with intent exclusive (scan + update).
    SIX,
    /// Exclusive.
    X,
}

impl LockMode {
    /// Whether two modes held by *different* transactions are compatible.
    pub fn compatible(self, other: LockMode) -> bool {
        use LockMode::*;
        matches!(
            (self, other),
            (IS, IS)
                | (IS, IX)
                | (IS, S)
                | (IS, SIX)
                | (IX, IS)
                | (IX, IX)
                | (S, IS)
                | (S, S)
                | (SIX, IS)
        )
    }

    /// Whether holding `self` already implies the permissions of `want`.
    pub fn covers(self, want: LockMode) -> bool {
        use LockMode::*;
        if self == want {
            return true;
        }
        match self {
            X => true,
            SIX => matches!(want, S | IX | IS),
            S => matches!(want, IS),
            IX => matches!(want, IS),
            IS => false,
        }
    }

    /// Least upper bound of two modes held by the *same* transaction.
    pub fn join(self, other: LockMode) -> LockMode {
        use LockMode::*;
        if self.covers(other) {
            return self;
        }
        if other.covers(self) {
            return other;
        }
        match (self, other) {
            (S, IX) | (IX, S) | (S, SIX) | (SIX, S) | (IX, SIX) | (SIX, IX) => SIX,
            _ => X,
        }
    }
}

/// What a lock protects: a table (empty `row`) or a row within it.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LockKey {
    /// The owning object.
    pub object: ObjectId,
    /// Row key bytes; empty for the table-level lock.
    pub row: Vec<u8>,
}

impl LockKey {
    /// The table-level lock for `object`.
    pub fn table(object: ObjectId) -> LockKey {
        LockKey {
            object,
            row: Vec::new(),
        }
    }

    /// A row-level lock.
    pub fn row(object: ObjectId, key: &[u8]) -> LockKey {
        LockKey {
            object,
            row: key.to_vec(),
        }
    }
}

#[derive(Default)]
struct LockEntry {
    granted: HashMap<TxnId, LockMode>,
    waiters: VecDeque<(TxnId, LockMode)>,
}

#[derive(Default)]
struct LmState {
    entries: HashMap<LockKey, LockEntry>,
    held: HashMap<TxnId, HashSet<LockKey>>,
    waiting: HashMap<TxnId, (LockKey, LockMode)>,
}

impl LmState {
    /// Can `txn` be granted `mode` on `entry` right now?
    fn grantable(&self, key: &LockKey, txn: TxnId, mode: LockMode) -> bool {
        let entry = match self.entries.get(key) {
            Some(e) => e,
            None => return true,
        };
        // compatible with every other holder
        if entry
            .granted
            .iter()
            .any(|(&t, &m)| t != txn && !mode.compatible(m))
        {
            return false;
        }
        // FIFO fairness: no earlier waiter with a conflicting request, unless
        // we already hold something here (upgrade: allowed to barge so we
        // don't deadlock behind our own queue position).
        let is_upgrade = entry.granted.contains_key(&txn);
        if !is_upgrade {
            for &(t, m) in &entry.waiters {
                if t == txn {
                    break;
                }
                if !mode.compatible(m) {
                    return false;
                }
            }
        }
        true
    }

    fn grant(&mut self, key: &LockKey, txn: TxnId, mode: LockMode) {
        let entry = self.entries.entry(key.clone()).or_default();
        let new_mode = entry.granted.get(&txn).map_or(mode, |m| m.join(mode));
        entry.granted.insert(txn, new_mode);
        entry.waiters.retain(|&(t, _)| t != txn);
        self.held.entry(txn).or_default().insert(key.clone());
        self.waiting.remove(&txn);
    }

    /// Walk the waits-for graph looking for a cycle through `start`.
    fn deadlocked(&self, start: TxnId) -> bool {
        let mut stack = vec![start];
        let mut seen = HashSet::new();
        let mut first = true;
        while let Some(t) = stack.pop() {
            if !first && t == start {
                return true;
            }
            first = false;
            if !seen.insert(t) {
                continue;
            }
            if let Some((key, mode)) = self.waiting.get(&t) {
                if let Some(entry) = self.entries.get(key) {
                    for (&h, &hm) in &entry.granted {
                        if h != t && !mode.compatible(hm) {
                            if h == start {
                                return true;
                            }
                            stack.push(h);
                        }
                    }
                    for &(w, wm) in &entry.waiters {
                        if w == t {
                            break;
                        }
                        if w != t && !mode.compatible(wm) {
                            if w == start {
                                return true;
                            }
                            stack.push(w);
                        }
                    }
                }
            }
        }
        false
    }
}

/// The lock manager. Thread-safe; shared via `Arc`.
pub struct LockManager {
    state: Mutex<LmState>,
    cv: Condvar,
    timeout: Duration,
}

impl LockManager {
    /// A lock manager whose waits give up after `timeout`.
    pub fn new(timeout: Duration) -> Self {
        LockManager {
            state: Mutex::new(LmState::default()),
            cv: Condvar::new(),
            timeout,
        }
    }

    /// Acquire `mode` on `key` for `txn`, blocking as needed.
    ///
    /// Returns [`Error::Deadlock`] if the wait would close a cycle (the
    /// requester is the victim) and [`Error::LockTimeout`] if the wait
    /// exceeds the configured timeout.
    pub fn acquire(&self, txn: TxnId, key: &LockKey, mode: LockMode) -> Result<()> {
        let mut st = self.state.lock();
        // fast paths
        if let Some(entry) = st.entries.get(key) {
            if let Some(&m) = entry.granted.get(&txn) {
                if m.covers(mode) {
                    return Ok(());
                }
            }
        }
        #[allow(clippy::disallowed_methods)]
        // tidy: allow(wall-clock) -- lock-wait deadlines are real elapsed time, not sim time
        let deadline = std::time::Instant::now() + self.timeout;
        loop {
            if st.grantable(key, txn, mode) {
                st.grant(key, txn, mode);
                return Ok(());
            }
            // enqueue (upgrades at the front so they can't starve behind
            // requests that conflict with what we already hold)
            let entry = st.entries.entry(key.clone()).or_default();
            let is_upgrade = entry.granted.contains_key(&txn);
            if !entry.waiters.iter().any(|&(t, _)| t == txn) {
                if is_upgrade {
                    entry.waiters.push_front((txn, mode));
                } else {
                    entry.waiters.push_back((txn, mode));
                }
            }
            st.waiting.insert(txn, (key.clone(), mode));
            if st.deadlocked(txn) {
                Self::remove_waiter(&mut st, txn, key);
                return Err(Error::Deadlock(txn));
            }
            let timed_out = self.cv.wait_until(&mut st, deadline).timed_out();
            if timed_out && !st.grantable(key, txn, mode) {
                Self::remove_waiter(&mut st, txn, key);
                return Err(Error::LockTimeout(txn));
            }
        }
    }

    fn remove_waiter(st: &mut LmState, txn: TxnId, key: &LockKey) {
        if let Some(entry) = st.entries.get_mut(key) {
            entry.waiters.retain(|&(t, _)| t != txn);
        }
        st.waiting.remove(&txn);
    }

    /// Grant `mode` on `key` to `txn` unconditionally, bypassing
    /// compatibility. Used by snapshot recovery's lock *re*acquisition
    /// (§5.2): the in-flight transactions held these locks at the SplitLSN
    /// by construction, and coarsened (table-level) reacquisitions may
    /// overlap. Queries observe the union via [`LockManager::would_block`].
    pub fn force_grant(&self, txn: TxnId, key: &LockKey, mode: LockMode) {
        let mut st = self.state.lock();
        st.grant(key, txn, mode);
    }

    /// Release every lock held by `txn` (commit / rollback end).
    pub fn release_all(&self, txn: TxnId) {
        let mut st = self.state.lock();
        if let Some(keys) = st.held.remove(&txn) {
            for key in keys {
                if let Some(entry) = st.entries.get_mut(&key) {
                    entry.granted.remove(&txn);
                    if entry.granted.is_empty() && entry.waiters.is_empty() {
                        st.entries.remove(&key);
                    }
                }
            }
        }
        st.waiting.remove(&txn);
        self.cv.notify_all();
    }

    /// Whether *any* transaction holds a lock on `key` incompatible with
    /// `mode` (non-blocking probe; used by snapshot row gates).
    pub fn would_block(&self, key: &LockKey, mode: LockMode) -> bool {
        let st = self.state.lock();
        st.entries
            .get(key)
            .map(|e| e.granted.values().any(|&m| !mode.compatible(m)))
            .unwrap_or(false)
    }

    /// Block until `mode` on `key` would be immediately compatible with all
    /// holders (without acquiring anything). Used by snapshot queries racing
    /// the background undo (§5.2): readers wait for the reacquired lock of a
    /// loser transaction to be released.
    pub fn wait_until_free(&self, key: &LockKey, mode: LockMode) -> Result<()> {
        let mut st = self.state.lock();
        #[allow(clippy::disallowed_methods)]
        // tidy: allow(wall-clock) -- lock-wait deadlines are real elapsed time, not sim time
        let deadline = std::time::Instant::now() + self.timeout;
        loop {
            let blocked = st
                .entries
                .get(key)
                .map(|e| e.granted.values().any(|&m| !mode.compatible(m)))
                .unwrap_or(false);
            if !blocked {
                return Ok(());
            }
            if self.cv.wait_until(&mut st, deadline).timed_out() {
                return Err(Error::LockTimeout(TxnId::NONE));
            }
        }
    }

    /// Block until no lock anywhere under `object` (table or row) is
    /// incompatible with a shared read. Snapshot queries use this when a
    /// *absence* must be validated against in-flight transactions (§5.2) —
    /// e.g. a table missing from the catalog while a DDL transaction's
    /// reacquired locks are still held. Returns whether it had to wait.
    pub fn wait_until_object_free(&self, object: ObjectId) -> Result<bool> {
        let mut st = self.state.lock();
        #[allow(clippy::disallowed_methods)]
        // tidy: allow(wall-clock) -- lock-wait deadlines are real elapsed time, not sim time
        let deadline = std::time::Instant::now() + self.timeout;
        let mut waited = false;
        loop {
            let blocked = st.entries.iter().any(|(k, e)| {
                k.object == object && e.granted.values().any(|&m| !LockMode::S.compatible(m))
            });
            if !blocked {
                return Ok(waited);
            }
            if self.cv.wait_until(&mut st, deadline).timed_out() {
                return Err(Error::LockTimeout(TxnId::NONE));
            }
            waited = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    impl LockManager {
        /// The strongest mode `txn` holds on `key`, if any.
        fn held_mode(&self, txn: TxnId, key: &LockKey) -> Option<LockMode> {
            let st = self.state.lock();
            st.entries
                .get(key)
                .and_then(|e| e.granted.get(&txn).copied())
        }

        /// Total number of lock entries (diagnostics).
        fn entry_count(&self) -> usize {
            self.state.lock().entries.len()
        }
    }

    fn lm() -> Arc<LockManager> {
        Arc::new(LockManager::new(Duration::from_secs(5)))
    }

    fn k(obj: u64, row: &[u8]) -> LockKey {
        LockKey::row(ObjectId(obj), row)
    }

    #[test]
    fn compatibility_matrix() {
        use LockMode::*;
        assert!(IS.compatible(IX));
        assert!(IX.compatible(IX));
        assert!(!IX.compatible(S));
        assert!(S.compatible(S));
        assert!(!S.compatible(X));
        assert!(!X.compatible(IS));
        assert!(SIX.compatible(IS));
        assert!(!SIX.compatible(IX));
        assert!(!SIX.compatible(SIX));
    }

    #[test]
    fn covers_and_join() {
        use LockMode::*;
        assert!(X.covers(S));
        assert!(SIX.covers(IX));
        assert!(S.covers(IS));
        assert!(!IS.covers(S));
        assert_eq!(S.join(IX), SIX);
        assert_eq!(IX.join(S), SIX);
        assert_eq!(S.join(X), X);
        assert_eq!(IS.join(IX), IX);
    }

    #[test]
    fn shared_locks_coexist_exclusive_excludes() {
        let lm = lm();
        let key = k(1, b"row");
        lm.acquire(TxnId(1), &key, LockMode::S).unwrap();
        lm.acquire(TxnId(2), &key, LockMode::S).unwrap();
        assert!(lm.would_block(&key, LockMode::X));
        lm.release_all(TxnId(1));
        lm.release_all(TxnId(2));
        assert!(!lm.would_block(&key, LockMode::X));
        lm.acquire(TxnId(3), &key, LockMode::X).unwrap();
        assert!(lm.would_block(&key, LockMode::S));
        lm.release_all(TxnId(3));
        assert_eq!(lm.entry_count(), 0, "empty entries are garbage-collected");
    }

    #[test]
    fn reentrant_and_upgrade_when_alone() {
        let lm = lm();
        let key = k(1, b"r");
        lm.acquire(TxnId(1), &key, LockMode::S).unwrap();
        lm.acquire(TxnId(1), &key, LockMode::S).unwrap();
        lm.acquire(TxnId(1), &key, LockMode::X).unwrap(); // upgrade, no other holders
        assert_eq!(lm.held_mode(TxnId(1), &key), Some(LockMode::X));
        lm.release_all(TxnId(1));
    }

    #[test]
    fn blocking_handoff() {
        let lm = lm();
        let key = k(1, b"hot");
        lm.acquire(TxnId(1), &key, LockMode::X).unwrap();
        let lm2 = lm.clone();
        let key2 = key.clone();
        let h = std::thread::spawn(move || {
            lm2.acquire(TxnId(2), &key2, LockMode::X).unwrap();
            lm2.release_all(TxnId(2));
        });
        std::thread::sleep(Duration::from_millis(30));
        lm.release_all(TxnId(1));
        h.join().unwrap();
    }

    #[test]
    fn deadlock_detected() {
        let lm = lm();
        let ka = k(1, b"a");
        let kb = k(1, b"b");
        lm.acquire(TxnId(1), &ka, LockMode::X).unwrap();
        lm.acquire(TxnId(2), &kb, LockMode::X).unwrap();
        let lm2 = lm.clone();
        let (ka2, kb2) = (ka.clone(), kb.clone());
        // T1 waits for b (held by T2)
        let h = std::thread::spawn(move || {
            let r = lm2.acquire(TxnId(1), &kb2, LockMode::X);
            // T1 either blocks until T2 dies, or is itself the victim
            if r.is_err() {
                lm2.release_all(TxnId(1));
            } else {
                let _ = ka2;
                lm2.release_all(TxnId(1));
            }
        });
        std::thread::sleep(Duration::from_millis(50));
        // T2 requests a (held by T1) -> closes the cycle -> victim
        let r = lm.acquire(TxnId(2), &ka, LockMode::X);
        match r {
            Err(Error::Deadlock(t)) => assert_eq!(t, TxnId(2)),
            other => panic!("expected deadlock, got {other:?}"),
        }
        lm.release_all(TxnId(2));
        h.join().unwrap();
    }

    #[test]
    fn timeout_fires() {
        let lm = Arc::new(LockManager::new(Duration::from_millis(50)));
        let key = k(1, b"slow");
        lm.acquire(TxnId(1), &key, LockMode::X).unwrap();
        let r = lm.acquire(TxnId(2), &key, LockMode::S);
        assert!(matches!(r, Err(Error::LockTimeout(_))));
        lm.release_all(TxnId(1));
    }

    #[test]
    fn intent_locks_let_rows_coexist_but_block_table_x() {
        let lm = lm();
        let table = LockKey::table(ObjectId(7));
        lm.acquire(TxnId(1), &table, LockMode::IX).unwrap();
        lm.acquire(TxnId(1), &k(7, b"r1"), LockMode::X).unwrap();
        lm.acquire(TxnId(2), &table, LockMode::IX).unwrap();
        lm.acquire(TxnId(2), &k(7, b"r2"), LockMode::X).unwrap();
        // DDL wants the table exclusively: must block
        assert!(lm.would_block(&table, LockMode::X));
        lm.release_all(TxnId(1));
        lm.release_all(TxnId(2));
        assert!(!lm.would_block(&table, LockMode::X));
    }

    #[test]
    fn wait_until_free_unblocks_on_release() {
        let lm = lm();
        let key = k(2, b"gate");
        lm.acquire(TxnId(9), &key, LockMode::X).unwrap();
        let lm2 = lm.clone();
        let key2 = key.clone();
        let h = std::thread::spawn(move || {
            lm2.wait_until_free(&key2, LockMode::S).unwrap();
        });
        std::thread::sleep(Duration::from_millis(30));
        lm.release_all(TxnId(9));
        h.join().unwrap();
    }

    #[test]
    fn fifo_prevents_barging() {
        let lm = lm();
        let key = k(1, b"fifo");
        lm.acquire(TxnId(1), &key, LockMode::S).unwrap();
        // T2 wants X: waits
        let lm_w = lm.clone();
        let key_w = key.clone();
        let waiter = std::thread::spawn(move || {
            lm_w.acquire(TxnId(2), &key_w, LockMode::X).unwrap();
            lm_w.release_all(TxnId(2));
        });
        std::thread::sleep(Duration::from_millis(30));
        // T3 wants S: compatible with the holder but must queue behind T2
        let lm_b = lm.clone();
        let key_b = key.clone();
        let behind = std::thread::spawn(move || {
            lm_b.acquire(TxnId(3), &key_b, LockMode::S).unwrap();
            lm_b.release_all(TxnId(3));
        });
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(
            lm.held_mode(TxnId(3), &key),
            None,
            "T3 must not barge past T2"
        );
        lm.release_all(TxnId(1));
        waiter.join().unwrap();
        behind.join().unwrap();
    }
}
