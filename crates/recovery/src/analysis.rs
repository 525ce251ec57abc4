//! The analysis pass, shared by crash restart and as-of snapshot recovery.
//!
//! Scans the log from the latest checkpoint preceding the recovery bound up
//! to the bound itself (end of log for a crash; the SplitLSN for an as-of
//! snapshot, §5.2), rebuilding:
//!
//! * the **active-transaction table** — transactions with no commit/end by
//!   the bound are losers;
//! * the **dirty-page table** — where redo must start;
//! * per-loser **lock sets** — the row locks snapshot recovery reacquires so
//!   queries cannot observe data of in-flight transactions before the
//!   background undo fixes it (§5.2). B-Tree rows are keyed by their key
//!   bytes; heap rows (flagged records) coarsen to a table lock. A
//!   key-changing update locks *both* keys: the old image's row must stay
//!   invisible until undo restores it, and the new image's row must stay
//!   invisible until undo removes it.
//!
//! The pass is built around [`AnalysisBuilder`], a record-at-a-time state
//! machine: [`analyze`] drives it over a plain forward scan, and the
//! pipelined restart path (`restart` module) drives the *same* builder from
//! the scan that simultaneously dispatches redo work — which is what makes
//! "analysis output streams to redo" a refactor rather than a fork of the
//! analysis logic.

use rewind_common::{Lsn, ObjectId, PageId, Result, TxnId};
use rewind_txn::{LockKey, LockMode};
use rewind_wal::{
    CheckpointBody, DptEntry, LogManager, LogPayloadView, LogRecordHeader, PayloadKind,
    REC_FLAG_HEAP, REC_FLAG_SYSTEM,
};
use std::collections::{HashMap, HashSet};

/// A transaction found in flight at the recovery bound.
#[derive(Clone, Debug)]
pub struct LoserTxn {
    /// The transaction id.
    pub id: TxnId,
    /// Its first record at or below the bound.
    pub first_lsn: Lsn,
    /// Its last record at or below the bound (undo starts here).
    pub last_lsn: Lsn,
    /// Row/table locks to reacquire before opening for queries, with the
    /// mode the transaction effectively held.
    pub locks: Vec<(LockKey, LockMode)>,
}

/// Outcome of the analysis pass.
#[derive(Clone, Debug, Default)]
pub struct AnalysisResult {
    /// In-flight transactions at the bound, ascending by id.
    pub losers: Vec<LoserTxn>,
    /// Dirty-page table at the bound (checkpoint DPT merged with scanned
    /// modifications).
    pub dpt: Vec<DptEntry>,
    /// Redo must start here (min recLSN), or the bound if nothing to redo.
    pub redo_start: Lsn,
    /// Where the scan started (checkpoint begin or truncation point).
    pub scan_start: Lsn,
    /// Highest transaction id observed (id allocation floor after restart).
    pub max_txn_id: TxnId,
    /// Number of committed transactions observed in the window.
    pub committed: u64,
    /// Log records visited by the forward scan (the analysis-phase work
    /// metric recovery reports).
    pub records_scanned: u64,
}

/// Extract the B-Tree row-lock key from serialized row bytes
/// (`[klen: u16 LE][key][rest]`), coarsening to a table lock when the
/// encoding is not parseable as such.
fn row_key(object: ObjectId, rec: &[u8]) -> LockKey {
    if rec.len() < 2 {
        return LockKey::table(object);
    }
    let klen = u16::from_le_bytes([rec[0], rec[1]]) as usize;
    if 2 + klen > rec.len() {
        return LockKey::table(object);
    }
    LockKey::row(object, &rec[2..2 + klen])
}

/// The lock keys a loser must reacquire for one record: the row key of the
/// changed image, plus — for a key-changing update — the row key of the
/// *new* image. Locking only the old key would leave the new key unlocked,
/// so a pre-undo as-of query could observe the in-flight row under its new
/// key. User row changes only: system (structure-modification) records
/// move rows without owning them.
fn locks_for(
    rec_flags: u8,
    object: ObjectId,
    payload: &LogPayloadView<'_>,
) -> (Option<LockKey>, Option<LockKey>) {
    let (primary, secondary): (&[u8], Option<&[u8]>) = match *payload {
        LogPayloadView::InsertRecord { bytes, .. } => (bytes, None),
        LogPayloadView::DeleteRecord { old, .. } => (old, None),
        LogPayloadView::UpdateRecord { old, new, .. } => (old, Some(new)),
        _ => return (None, None),
    };
    if rec_flags & REC_FLAG_SYSTEM != 0 {
        return (None, None);
    }
    if rec_flags & REC_FLAG_HEAP != 0 {
        // Heap rows: coarsen to the table (insert-mostly heaps; cheap and
        // safe — one lock covers both images).
        return (Some(LockKey::table(object)), None);
    }
    let first = row_key(object, primary);
    let second = secondary
        .map(|new| row_key(object, new))
        .filter(|k| *k != first);
    (Some(first), second)
}

#[derive(Default)]
struct TxnInfo {
    first: Lsn,
    last: Lsn,
    /// Locks to reacquire, in first-seen order, repeats included: most
    /// transactions commit inside the window, so only losers are deduped,
    /// once, by [`first_seen`].
    locks: Vec<(LockKey, LockMode)>,
}

impl TxnInfo {
    fn push_lock(&mut self, key: LockKey) {
        self.locks.push((key, LockMode::X));
    }
}

/// `locks` without its repeats, in first-seen order.
fn first_seen(locks: Vec<(LockKey, LockMode)>) -> Vec<(LockKey, LockMode)> {
    let mut seen = HashSet::with_capacity(locks.len());
    locks
        .into_iter()
        .filter(|(key, _)| seen.insert(key.clone()))
        .collect()
}

/// Record-at-a-time analysis state: seed from a checkpoint, feed every
/// record of the forward scan through [`AnalysisBuilder::observe`], then
/// [`AnalysisBuilder::finish`].
///
/// `observe` also answers the *online redo-qualification* question: for a
/// page-op record it returns the page's recLSN as known at this point of
/// the scan. Because the DPT keeps the **first** recLSN seen per page
/// (checkpoint seed, else first scan sighting — `or_insert` semantics), the
/// value returned for a record equals the page's recLSN in the *final* DPT:
/// later sightings never change it. The classical two-pass test
/// `lsn >= final_dpt[page]` can therefore be evaluated during the single
/// forward scan, which is what lets the restart path dispatch redo work
/// with no barrier after analysis.
pub struct AnalysisBuilder {
    att: HashMap<u64, TxnInfo>,
    dpt: HashMap<PageId, Lsn>,
    /// The checkpoint-seeded DPT alone (empty without a checkpoint): the
    /// pages for which records *before* `scan_start` can still qualify for
    /// redo. Pages first dirtied inside the scan window have
    /// `recLSN >= scan_start` by construction.
    ckpt_dpt: Vec<DptEntry>,
    scan_start: Lsn,
    max_txn: TxnId,
    committed: u64,
    records_scanned: u64,
}

impl AnalysisBuilder {
    /// Locate the checkpoint governing `bound` and seed the ATT/DPT from
    /// its end record. The forward scan must start at
    /// [`AnalysisBuilder::scan_start`].
    pub fn seed(log: &LogManager, bound: Lsn) -> Result<AnalysisBuilder> {
        let checkpoint = log.checkpoint_before(bound);
        let scan_start = match &checkpoint {
            Some(c) => c.begin_lsn,
            None => log.truncation_point(),
        };
        let mut b = AnalysisBuilder {
            att: HashMap::new(),
            dpt: HashMap::new(),
            ckpt_dpt: Vec::new(),
            scan_start,
            max_txn: TxnId::NONE,
            committed: 0,
            records_scanned: 0,
        };
        if let Some(c) = &checkpoint {
            let rec = log.get_record_deep(c.end_lsn)?;
            if let (_, LogPayloadView::CheckpointEnd { tables, .. }) = rec.view()? {
                let body = CheckpointBody::decode(tables)?;
                // The ATT lists open chains only, and the log closes a
                // chain in the writer-mutex hold that appends its Commit or
                // End: no entry's transaction finished below the scan start.
                for e in body.att {
                    b.max_txn = b.max_txn.max(e.txn);
                    b.att.insert(
                        e.txn.0,
                        TxnInfo {
                            first: e.first_lsn,
                            last: e.last_lsn,
                            ..TxnInfo::default()
                        },
                    );
                }
                for e in &body.dpt {
                    b.dpt.entry(e.page).or_insert(e.rec_lsn);
                }
                b.ckpt_dpt = body.dpt;
            }
        }
        Ok(b)
    }

    /// Where the forward scan begins (checkpoint begin or truncation point).
    pub fn scan_start(&self) -> Lsn {
        self.scan_start
    }

    /// The checkpoint-seeded DPT entries (before any scanning).
    pub fn checkpoint_dpt(&self) -> &[DptEntry] {
        &self.ckpt_dpt
    }

    /// Feed one record of the forward scan (in LSN order, starting at
    /// [`AnalysisBuilder::scan_start`]). For a page-op record, returns the
    /// page's recLSN — final-DPT-equal, see the type docs — so the caller
    /// can decide redo qualification (`header.lsn >= rec_lsn`) online.
    pub fn observe(&mut self, header: &LogRecordHeader, view: &LogPayloadView<'_>) -> Option<Lsn> {
        self.records_scanned += 1;
        if header.txn.is_valid() {
            self.max_txn = self.max_txn.max(header.txn);
            match header.kind {
                PayloadKind::Commit | PayloadKind::End => {
                    if header.kind == PayloadKind::Commit {
                        self.committed += 1;
                    }
                    self.att.remove(&header.txn.0);
                }
                _ => {
                    let info = self.att.entry(header.txn.0).or_default();
                    if info.first.is_null() {
                        info.first = header.lsn;
                    }
                    info.last = header.lsn;
                    let (first, second) = locks_for(header.flags, header.object, view);
                    if let Some(key) = first {
                        info.push_lock(key);
                    }
                    if let Some(key) = second {
                        info.push_lock(key);
                    }
                }
            }
        }
        if header.is_page_op() && header.page.is_valid() {
            Some(*self.dpt.entry(header.page).or_insert(header.lsn))
        } else {
            None
        }
    }

    /// Complete the pass: run the supplemental lock scan for losers whose
    /// activity began before the checkpoint, sort, and assemble the result.
    pub fn finish(self, log: &LogManager, bound: Lsn) -> Result<AnalysisResult> {
        let AnalysisBuilder {
            mut att,
            dpt,
            scan_start,
            max_txn,
            committed,
            records_scanned,
            ..
        } = self;

        // Supplemental lock scan for losers whose activity began before the
        // checkpoint: ARIES reacquires locks from the transactions' first
        // LSNs.
        let earliest = att
            .values()
            .map(|t| t.first)
            .filter(|l| l.is_valid() && *l < scan_start)
            .min();
        if let Some(from) = earliest {
            let ids: Vec<u64> = att.keys().copied().collect();
            log.scan_refs(from, scan_start, |rec| {
                let (header, view) = rec.view()?;
                if header.txn.is_valid() && ids.contains(&header.txn.0) {
                    let (first, second) = locks_for(header.flags, header.object, &view);
                    if let Some(info) = att.get_mut(&header.txn.0) {
                        if let Some(key) = first {
                            info.push_lock(key);
                        }
                        if let Some(key) = second {
                            info.push_lock(key);
                        }
                    }
                }
                Ok(true)
            })?;
        }

        let mut losers: Vec<LoserTxn> = att
            .into_iter()
            .filter(|(_, info)| info.last.is_valid())
            .map(|(id, info)| LoserTxn {
                id: TxnId(id),
                first_lsn: info.first,
                last_lsn: info.last,
                locks: first_seen(info.locks),
            })
            .collect();
        losers.sort_by_key(|l| l.id);

        let redo_start = dpt.values().copied().min().unwrap_or(if bound == Lsn::MAX {
            log.tail_lsn()
        } else {
            bound
        });
        let mut dpt: Vec<DptEntry> = dpt
            .into_iter()
            .map(|(page, rec_lsn)| DptEntry { page, rec_lsn })
            .collect();
        dpt.sort_by_key(|e| e.page);

        Ok(AnalysisResult {
            losers,
            dpt,
            redo_start,
            scan_start,
            max_txn_id: max_txn,
            committed,
            records_scanned,
        })
    }
}

/// Run analysis over `[checkpoint-before(bound), bound)`.
///
/// `bound` is exclusive-after: records with `lsn <= bound` are part of the
/// recovered state (matching the SplitLSN convention). Pass [`Lsn::MAX`] for
/// crash restart.
pub fn analyze(log: &LogManager, bound: Lsn) -> Result<AnalysisResult> {
    let mut builder = AnalysisBuilder::seed(log, bound)?;
    // Forward scan: header-only navigation with borrowed payload views —
    // row bytes are inspected in place for lock keys, never copied.
    // `scan_end()` saturates, so the `Lsn::MAX` crash-restart sentinel
    // stays "to the end of the log" instead of overflowing to NULL.
    log.scan_refs(builder.scan_start(), bound.scan_end(), |rec| {
        let (header, view) = rec.view()?;
        builder.observe(&header, &view);
        Ok(true)
    })?;
    builder.finish(log, bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rewind_pagestore::PAGE_SIZE;
    use rewind_wal::{LogConfig, LogPayload, LogRecord, Payload};
    use std::sync::Arc;

    fn row_bytes(key: &[u8]) -> Vec<u8> {
        let mut v = (key.len() as u16).to_le_bytes().to_vec();
        v.extend_from_slice(key);
        v.extend_from_slice(b"-rest");
        v
    }

    fn update(txn: TxnId, old: Vec<u8>, new: Vec<u8>) -> LogRecord<Vec<u8>, Box<[u8; PAGE_SIZE]>> {
        LogRecord {
            lsn: Lsn::NULL,
            txn,
            prev_lsn: Lsn::NULL,
            page: PageId(5),
            prev_page_lsn: Lsn::NULL,
            object: ObjectId(501),
            undo_next: Lsn::NULL,
            flags: 0,
            payload: LogPayload::UpdateRecord { slot: 0, old, new },
        }
    }

    /// Regression: a key-changing update's *new* key was never reacquired
    /// as a loser lock, so a pre-undo as-of query could observe the
    /// in-flight row under its new key. Analysis must lock both keys — and
    /// still deduplicate when the keys are equal.
    #[test]
    fn key_changing_update_locks_both_keys() {
        let log = Arc::new(LogManager::new(LogConfig::default()));
        log.append(&update(TxnId(7), row_bytes(b"alpha"), row_bytes(b"beta")));
        log.append(&update(TxnId(8), row_bytes(b"same"), row_bytes(b"same")));

        let analysis = analyze(&log, Lsn::MAX).unwrap();
        assert_eq!(analysis.losers.len(), 2);

        let obj = ObjectId(501);
        let changer = &analysis.losers[0];
        assert_eq!(changer.id, TxnId(7));
        let keys: Vec<&LockKey> = changer.locks.iter().map(|(k, _)| k).collect();
        assert!(keys.contains(&&LockKey::row(obj, b"alpha")));
        assert!(
            keys.contains(&&LockKey::row(obj, b"beta")),
            "the NEW key of a key-changing update must be locked: {keys:?}"
        );

        let stable = &analysis.losers[1];
        assert_eq!(
            stable.locks,
            vec![(LockKey::row(obj, b"same"), LockMode::X)],
            "a same-key update acquires its key exactly once"
        );
    }

    fn marker<B, I>(txn: TxnId, prev_lsn: Lsn, payload: Payload<B, I>) -> LogRecord<B, I> {
        LogRecord {
            lsn: Lsn::NULL,
            txn,
            prev_lsn,
            page: PageId::INVALID,
            prev_page_lsn: Lsn::NULL,
            object: ObjectId::NONE,
            undo_next: Lsn::NULL,
            flags: 0,
            payload,
        }
    }

    /// Regression (G5): the marker that closes a structure modification
    /// does not end its transaction. A loser updates `a`, splits (two
    /// system page ops and the `SmoEnd`), and — in the second case —
    /// updates `b` after the split. Both times it must stay a loser from its
    /// first update, holding every row lock it took. When the marker was an
    /// `End` with the CLR and system flags, analysis dropped the loser at
    /// it: with nothing after the split the loser vanished, and with `b`
    /// after it the loser restarted at `b` without `a`'s lock.
    #[test]
    fn smo_end_keeps_the_loser_and_its_locks() {
        use rewind_wal::{REC_FLAG_CLR, REC_FLAG_SYSTEM};

        let lock = |k: &[u8]| (LockKey::row(ObjectId(501), k), LockMode::X);
        for update_after in [false, true] {
            let log = LogManager::new(LogConfig::default());
            let txn = TxnId(7);
            let first = log.append(&update(txn, row_bytes(b"a"), row_bytes(b"a")));
            let mut prev = first;
            for _ in 0..2 {
                let mut op = update(txn, row_bytes(b"moved"), row_bytes(b"moved"));
                op.prev_lsn = prev;
                op.flags = REC_FLAG_SYSTEM;
                prev = log.append(&op);
            }
            let mut smo_end = marker(txn, prev, LogPayloadView::SmoEnd);
            smo_end.undo_next = first;
            smo_end.flags = REC_FLAG_CLR | REC_FLAG_SYSTEM;
            prev = log.append(&smo_end);
            let mut locks = vec![lock(b"a")];
            if update_after {
                let mut b = update(txn, row_bytes(b"b"), row_bytes(b"b"));
                b.prev_lsn = prev;
                log.append(&b);
                locks.push(lock(b"b"));
            }

            let analysis = analyze(&log, Lsn::MAX).unwrap();
            let losers: Vec<(TxnId, Lsn)> = analysis
                .losers
                .iter()
                .map(|l| (l.id, l.first_lsn))
                .collect();
            assert_eq!(
                losers,
                [(txn, first)],
                "update after the split: {update_after}"
            );
            assert_eq!(
                analysis.losers[0].locks, locks,
                "update after the split: {update_after}"
            );
        }
    }

    /// Regression (G2): a fuzzy checkpoint captures its ATT after the begin
    /// marker, so it can run after a transaction's commit is in the log but
    /// before the transaction leaves the table. The commit lies below the
    /// scan start, so analysis never sees it: had the ATT listed the
    /// transaction, restart would undo it. The log closes the chain in the
    /// append that writes the commit, so the checkpoint omits it.
    #[test]
    fn checkpoint_between_commit_and_finish_lists_no_committed_txn() {
        use crate::checkpoint::take_checkpoint;
        use rewind_buffer::BufferPool;
        use rewind_common::{SimClock, Timestamp};
        use rewind_pagestore::MemFileManager;
        use rewind_txn::{TxnManager, TxnState};

        let log = Arc::new(LogManager::new(LogConfig::default()));
        let pool = BufferPool::new(Arc::new(MemFileManager::new()), log.clone(), 8);
        let txns = TxnManager::new();
        let clock = SimClock::starting_at(Timestamp::from_secs(1));
        let done = txns.begin();
        let k = || update(done.id, row_bytes(b"k"), row_bytes(b"k"));
        log.append_batch(&done.chain, &mut [k(), k()]);
        let mut commit = marker(
            done.id,
            Lsn::NULL,
            LogPayloadView::Commit {
                at: Timestamp::ZERO,
            },
        );
        log.append_stamped(Some(&done.chain), &mut commit, &|| clock.now());
        let open = txns.begin();
        let z = update(open.id, row_bytes(b"z"), row_bytes(b"z"));
        log.append_batch(&open.chain, &mut [z]);
        // The window: the commit is in the log, the transaction still in
        // the table.
        assert_eq!(done.state(), TxnState::Active);
        assert!(txns.is_active(done.id));

        let end_lsn = take_checkpoint(&log, &txns, &pool, &clock).unwrap();
        let rec = log.get_record_ref(end_lsn).unwrap();
        let LogPayloadView::CheckpointEnd { tables, .. } = rec.view().unwrap().1 else {
            panic!("not a checkpoint end at {end_lsn:?}");
        };
        let att: Vec<TxnId> = CheckpointBody::decode(tables)
            .unwrap()
            .att
            .iter()
            .map(|e| e.txn)
            .collect();
        assert_eq!(att, [open.id], "the captured ATT lists open chains only");
        for bound in [Lsn::MAX, end_lsn] {
            let analysis = analyze(&log, bound).unwrap();
            let losers: Vec<TxnId> = analysis.losers.iter().map(|l| l.id).collect();
            assert_eq!(losers, [open.id], "losers at bound {bound:?}");
        }
    }
}
