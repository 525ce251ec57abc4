//! Log harvest: find the target transactions, the row keys they touched,
//! and every *later* committed writer of those keys, reading the log from
//! the segment where the targets begin rather than from the truncation
//! point, so the cost follows the changes made since the error and not the
//! length of the retained log.
//!
//! ## Where the pass starts
//!
//! Each log segment carries a summary: its highest transaction id and its
//! highest commit/checkpoint stamp (`rewind_wal::SegmentSummary`). The
//! forward pass starts at the first retained segment that could hold a
//! target ([`LogManager::first_segment_where`]):
//!
//! * [`RepairTarget::Txns`]: the first segment whose highest id is at least
//!   the smallest target id. Every record of a target carries its id, so no
//!   target record lies below; restart never reuses an id, so the segments
//!   below hold only transactions that began earlier.
//! * [`RepairTarget::TimeWindow`]: the first segment whose highest stamp is
//!   at least `from`. Stamps are monotone in LSN, so no target commit lies
//!   below.
//!
//! The pass buckets records by transaction. A chain whose first record in
//! the pass has a valid `prev_lsn` began below the start; one backward
//! `prev_lsn` walk completes it, for the targets and for the non-target
//! transactions that committed after the split, stopping at the truncation
//! point as a pass from there would. When a target's chain reaches below
//! the start (a window target that began in an earlier segment), the pass
//! runs again from that target's first record, so every commit after the
//! split is seen. The whole-log harvest is the same function started at the
//! truncation point; its result is the same.
//!
//! Records are read through the zero-copy `LogRecordHeader`/`LogPayloadView`
//! decode path: headers navigate, and only Insert/Delete/Update payloads
//! have their embedded key bytes inspected (in place, never copied until a
//! key is actually recorded).
//!
//! ## What counts as a write
//!
//! Non-system `InsertRecord`/`DeleteRecord`/`UpdateRecord` records carry a
//! row image whose leading `[u16 klen][key]` prefix identifies the row —
//! the same convention snapshot recovery's lock reacquisition relies on.
//! System (structure-modification) records *move* rows without owning them
//! and are skipped; CLRs count as writes of the key they compensate (the
//! diff against the live state resolves the net effect either way).
//!
//! ## Conflict rule
//!
//! The witness snapshot is split just before the earliest target record.
//! A harvested key is *conflicted* when some non-target transaction that
//! **committed after the split** also wrote it — whether its write LSN
//! falls before or after the target's, its effect is absent from the
//! witness (in-flight transactions are rolled back there), so restoring
//! the witness image would overwrite that transaction's committed work.
//! The planner later downgrades conflicts whose restore action is a no-op.

use rewind_common::{Error, Lsn, ObjectId, Result, Timestamp, TxnId};
use rewind_wal::{LogManager, LogPayloadView, LogRecordHeader, PayloadKind, REC_FLAG_HEAP};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Which transactions to flash back.
#[derive(Clone, Debug)]
pub enum RepairTarget {
    /// An explicit set of (committed) transaction ids.
    Txns(BTreeSet<TxnId>),
    /// Every transaction whose commit stamp falls in `[from, to]` — the
    /// "bad batch job ran between 14:02 and 14:05" shape of the paper's §1
    /// scenario.
    TimeWindow {
        /// Start of the window (inclusive).
        from: Timestamp,
        /// End of the window (inclusive).
        to: Timestamp,
    },
}

/// A committed non-target transaction that wrote a harvested key after the
/// witness split.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConflictInfo {
    /// The later writer.
    pub txn: TxnId,
    /// LSN of its commit record.
    pub commit_lsn: Lsn,
    /// Its commit wall-clock stamp.
    pub commit_at: Timestamp,
}

/// One target transaction, fully located in the log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TargetTxn {
    /// The transaction id.
    pub id: TxnId,
    /// Its first retained log record.
    pub first_lsn: Lsn,
    /// Its last log record before the commit.
    pub last_lsn: Lsn,
    /// LSN of its commit record.
    pub commit_lsn: Lsn,
    /// Its commit wall-clock stamp.
    pub commit_at: Timestamp,
}

/// Everything the harvest pass learned.
#[derive(Clone, Debug, Default)]
pub struct Harvest {
    /// The located targets, ascending by id.
    pub targets: Vec<TargetTxn>,
    /// The witness split: just before the earliest target record.
    pub split_lsn: Lsn,
    /// Keys the targets wrote: `(object, key bytes)` → the target's last
    /// write LSN on that key.
    pub touched: BTreeMap<(ObjectId, Vec<u8>), Lsn>,
    /// Harvested keys also written by a later committed non-target txn.
    pub conflicts: HashMap<(ObjectId, Vec<u8>), ConflictInfo>,
    /// Objects the targets touched that row-level repair cannot cover:
    /// heap tables (rows addressed by RID, not key) and catalog trees
    /// (DDL — use `restore_table_from_snapshot` for those).
    pub unsupported: BTreeSet<ObjectId>,
    /// Log records visited by the forward pass and the chain walks.
    pub records_scanned: u64,
    /// Where the forward pass stopped (the log tail at harvest time).
    /// Conflicts are complete only up to here; [`refresh_conflicts`]
    /// extends them.
    pub scan_end: Lsn,
}

/// A row write observed in the log.
#[derive(Clone, Debug)]
struct PendingWrite {
    object: ObjectId,
    key: Vec<u8>,
    lsn: Lsn,
    heap: bool,
}

/// The row write a record makes, if it is one: a non-system
/// Insert/Delete/Update whose row image leads with `[u16 klen][key]` — the
/// lock-reacquisition convention.
fn write_of(header: &LogRecordHeader, view: &LogPayloadView<'_>) -> Option<PendingWrite> {
    let rec: &[u8] = match *view {
        LogPayloadView::InsertRecord { bytes, .. } => bytes,
        LogPayloadView::DeleteRecord { old, .. } => old,
        LogPayloadView::UpdateRecord { old, .. } => old,
        _ => return None,
    };
    if header.is_system() || rec.len() < 2 {
        return None;
    }
    let klen = u16::from_le_bytes([rec[0], rec[1]]) as usize;
    let key = rec.get(2..2 + klen)?;
    Some(PendingWrite {
        object: header.object,
        key: key.to_vec(),
        lsn: header.lsn,
        heap: header.flags & REC_FLAG_HEAP != 0,
    })
}

/// One transaction's records, as a pass read them and the chain walk
/// completed them.
#[derive(Default)]
struct Chain {
    /// Its first record read.
    first_lsn: Lsn,
    /// Its last record before the commit.
    last_lsn: Lsn,
    /// `prev_lsn` of the record at `first_lsn`: where the chain continues
    /// below what was read.
    below: Lsn,
    /// Its row writes.
    writes: Vec<PendingWrite>,
}

impl Chain {
    /// Take the transaction's next record of a forward pass.
    fn push(&mut self, header: &LogRecordHeader, view: &LogPayloadView<'_>) {
        if !self.first_lsn.is_valid() {
            self.first_lsn = header.lsn;
            self.below = header.prev_lsn;
        }
        // Track the chain extent through system records too: the witness
        // must split before *all* of a target's records, structure
        // modifications included.
        if header.kind != PayloadKind::Commit {
            self.last_lsn = header.lsn;
            self.writes.extend(write_of(header, view));
        }
    }

    /// Read the chain's records below the pass: walk `prev_lsn` back from
    /// `below` while at or above `floor`. The one chain walker: the harvest
    /// and [`refresh_conflicts`] complete every chain that began below
    /// their pass with it. Returns how many records were read.
    fn complete(&mut self, log: &LogManager, txn: TxnId, floor: Lsn) -> Result<u64> {
        let mut read = 0;
        let mut cur = std::mem::take(&mut self.below);
        while cur.is_valid() && cur >= floor {
            let rec = log.get_record_ref(cur)?;
            let (header, view) = rec.view()?;
            if header.txn != txn {
                return Err(Error::log_corruption(
                    cur,
                    format!("record of {} on the chain of {txn}", header.txn),
                ));
            }
            read += 1;
            self.first_lsn = header.lsn;
            if !self.last_lsn.is_valid() {
                self.last_lsn = header.lsn;
            }
            self.writes.extend(write_of(&header, &view));
            cur = header.prev_lsn;
        }
        Ok(read)
    }
}

/// A transaction whose commit a pass read.
struct Committed {
    id: TxnId,
    commit_lsn: Lsn,
    commit_at: Timestamp,
    chain: Chain,
}

/// What one forward pass over `[from, tail)` read.
struct Pass {
    /// Transactions that committed in the pass, in commit order.
    committed: Vec<Committed>,
    /// Transactions with records in the pass and neither `Commit` nor
    /// `End` yet.
    open: HashMap<TxnId, Chain>,
    /// Records read.
    records: u64,
    /// One past the last record read.
    end: Lsn,
}

impl Pass {
    /// Read `[from, tail)`, bucketing transaction records by transaction.
    fn read(log: &LogManager, from: Lsn) -> Result<Pass> {
        let mut open: HashMap<TxnId, Chain> = HashMap::new();
        let mut committed = Vec::new();
        let mut records = 0;
        let end = log.scan_views(from, Lsn::MAX, |header, view| {
            records += 1;
            if !header.txn.is_valid() {
                return Ok(true);
            }
            match *view {
                LogPayloadView::Commit { at } => {
                    let mut chain = open.remove(&header.txn).unwrap_or_default();
                    chain.push(header, view);
                    committed.push(Committed {
                        id: header.txn,
                        commit_lsn: header.lsn,
                        commit_at: at,
                        chain,
                    });
                }
                // End without a preceding commit: the txn rolled back; its
                // net effect is nil either way (writes + CLRs cancel). An
                // `SmoEnd` closes a structure modification, not the
                // transaction, and is an ordinary chain record.
                LogPayloadView::End => {
                    open.remove(&header.txn);
                }
                _ => open.entry(header.txn).or_default().push(header, view),
            }
            Ok(true)
        })?;
        Ok(Pass {
            committed,
            open,
            records,
            end,
        })
    }
}

/// Record `c`'s writes of harvested keys as conflicts. An earlier writer
/// keeps a key's report slot.
fn note_conflicts(out: &mut Harvest, c: &Committed) {
    for w in &c.chain.writes {
        let id = (w.object, w.key.clone());
        if out.touched.contains_key(&id) {
            out.conflicts.entry(id).or_insert(ConflictInfo {
                txn: c.id,
                commit_lsn: c.commit_lsn,
                commit_at: c.commit_at,
            });
        }
    }
}

/// Harvest the log for `target`, starting at the first segment whose
/// summary could hold one of its records.
pub fn harvest(log: &LogManager, target: &RepairTarget) -> Result<Harvest> {
    let start = match target {
        RepairTarget::Txns(ids) => {
            let low = ids.first().copied().unwrap_or_default();
            log.first_segment_where(|s| s.max_txn >= low)
        }
        RepairTarget::TimeWindow { from, .. } => log.first_segment_where(|s| s.max_stamp >= *from),
    };
    harvest_from(log, target, start)
}

/// The harvest with its forward pass started at `start`, a record boundary
/// at or above the truncation point. At the truncation point this is the
/// whole-log harvest; any start at or below the segment of the first target
/// record gives the same answer.
fn harvest_from(log: &LogManager, target: &RepairTarget, start: Lsn) -> Result<Harvest> {
    if let RepairTarget::TimeWindow { from, to } = target {
        if from > to {
            return Err(Error::InvalidArg(format!(
                "repair time window is empty ({from} > {to})"
            )));
        }
    }
    let floor = log.truncation_point();
    let pass = Pass::read(log, start)?;
    let mut out = Harvest {
        records_scanned: pass.records,
        scan_end: pass.end,
        ..Harvest::default()
    };

    // Classify committed transactions into targets and the rest.
    let is_target = |c: &Committed| match target {
        RepairTarget::Txns(ids) => ids.contains(&c.id),
        RepairTarget::TimeWindow { from, to } => c.commit_at >= *from && c.commit_at <= *to,
    };
    let (mut targets, others): (Vec<Committed>, Vec<Committed>) =
        pass.committed.into_iter().partition(is_target);
    match target {
        RepairTarget::Txns(ids) => {
            for id in ids {
                if !targets.iter().any(|t| t.id == *id) {
                    return Err(Error::InvalidArg(if pass.open.contains_key(id) {
                        format!(
                            "transaction {id} is still in flight (or rolled back); \
                             flashback repairs committed transactions only"
                        )
                    } else {
                        format!("transaction {id} has no committed record in the retained log")
                    }));
                }
            }
        }
        RepairTarget::TimeWindow { from, to } => {
            if targets.is_empty() {
                return Err(Error::InvalidArg(format!(
                    "no transaction committed in [{from}, {to}]"
                )));
            }
        }
    }
    for t in &mut targets {
        out.records_scanned += t.chain.complete(log, t.id, floor)?;
    }

    // The witness splits just before the earliest target record.
    let first = targets
        .iter()
        .map(|t| t.chain.first_lsn)
        .min()
        .ok_or_else(|| Error::Internal("harvest matched no target transactions".into()))?;
    if first < start {
        // A target began below the pass: read again from its first record,
        // so the commits between it and `start` are seen.
        return harvest_from(log, target, first);
    }
    out.split_lsn = Lsn(first.0.saturating_sub(1));

    for t in &targets {
        for w in &t.chain.writes {
            if w.heap || w.object.is_system() {
                out.unsupported.insert(w.object);
                continue;
            }
            let slot = out
                .touched
                .entry((w.object, w.key.clone()))
                .or_insert(w.lsn);
            *slot = (*slot).max(w.lsn);
        }
    }
    out.targets = targets
        .iter()
        .map(|t| TargetTxn {
            id: t.id,
            first_lsn: t.chain.first_lsn,
            last_lsn: t.chain.last_lsn,
            commit_lsn: t.commit_lsn,
            commit_at: t.commit_at,
        })
        .collect();
    out.targets.sort_by_key(|t| t.id);

    // Conflicts: non-target transactions that committed after the split and
    // wrote a harvested key, in commit order.
    for mut c in others {
        if c.commit_lsn > out.split_lsn {
            out.records_scanned += c.chain.complete(log, c.id, floor)?;
            note_conflicts(&mut out, &c);
        }
    }
    Ok(out)
}

/// Extend a harvest's conflict set with transactions that committed
/// *after* the original pass stopped ([`Harvest::scan_end`]).
///
/// This closes the race between harvesting and the planner's unlocked live
/// reads: a transaction committing in that window is visible to the
/// planner's read (so witness-vs-live diffs against its value) yet absent
/// from the conflict map, and the Skip policy would silently destroy its
/// committed write. Run this after planning, before apply — any commit the
/// planner could have observed lies below the log tail this scan reaches,
/// and any commit after it changes the row again and is caught by apply's
/// under-lock revalidation.
///
/// The pass and the chain walk are the harvest's own: each new commit's
/// chain is completed below `scan_end`, so writes the transaction made
/// before the harvest stopped are found too.
pub fn refresh_conflicts(log: &LogManager, harvest: &mut Harvest) -> Result<()> {
    let floor = log.truncation_point();
    let pass = Pass::read(log, harvest.scan_end)?;
    for mut c in pass.committed {
        if harvest.targets.iter().all(|t| t.id != c.id) {
            c.chain.complete(log, c.id, floor)?;
            note_conflicts(harvest, &c);
        }
    }
    harvest.scan_end = pass.end;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rewind_common::CorruptionKind;
    use rewind_common::PageId;
    use rewind_wal::{LogConfig, LogRecord, TxnChain, RECORD_HEADER_BYTES, REC_FLAG_SYSTEM};

    /// A row image `[u16 klen][u16 key][pad]`: the key the harvest reads.
    fn row(key: u16, pad: usize) -> Vec<u8> {
        let k = key.to_le_bytes();
        let mut r = vec![2, 0, k[0], k[1]];
        r.resize(4 + pad, 0xAB);
        r
    }

    /// A record of `txn` carrying `payload`; the log sets `prev_lsn`.
    macro_rules! rec {
        ($txn:expr, $object:expr, $flags:expr, $payload:expr) => {
            LogRecord {
                lsn: Lsn::NULL,
                txn: $txn,
                prev_lsn: Lsn::NULL,
                page: PageId(1),
                prev_page_lsn: Lsn::NULL,
                object: $object,
                undo_next: Lsn::NULL,
                flags: $flags,
                payload: $payload,
            }
        };
    }

    /// Append `txn`'s commit onto its chain, stamped `at`.
    fn commit(log: &LogManager, txn: TxnId, chain: &TxnChain, at: Timestamp) -> Lsn {
        let mut c = rec!(txn, ObjectId::NONE, 0, LogPayloadView::Commit { at });
        log.append_stamped(Some(chain), &mut c, &|| at).start
    }

    /// How a step cut the log: `discard_unflushed` after a crash, or
    /// `cut_at_damage` after a read met damage.
    #[derive(Clone, Copy, PartialEq)]
    enum Cut {
        None,
        Crash,
        Damage,
    }

    /// A seeded random log: up to six interleaved transactions writing a
    /// small key space across three tables (now and then a structure
    /// modification, a heap row or a catalog row), committing, rolling back,
    /// checkpointing, truncating, and losing their tail to a crash or to
    /// damage. Ids are never reused; a cut abandons every open transaction,
    /// as a restart would.
    struct RandomLog {
        log: LogManager,
        rng: u64,
        next_id: u64,
        now: u64,
        open: Vec<(TxnId, TxnChain)>,
        /// Each transaction's first record.
        first: HashMap<TxnId, Lsn>,
        /// Commit stamps (`true`) and checkpoint stamps (`false`).
        stamps: Vec<(Timestamp, bool)>,
        /// Committed transactions and their commit records.
        committed: Vec<(TxnId, Lsn)>,
        /// Record starts still in the log: flush and truncation targets.
        lsns: Vec<Lsn>,
    }

    impl RandomLog {
        fn new(seed: u64) -> RandomLog {
            RandomLog {
                log: LogManager::new(LogConfig::default()),
                rng: seed,
                next_id: 1,
                now: 1_000_000,
                open: Vec::new(),
                first: HashMap::new(),
                stamps: Vec::new(),
                committed: Vec::new(),
                lsns: Vec::new(),
            }
        }

        fn next(&mut self, n: u64) -> u64 {
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            self.rng % n
        }

        /// The clock, which often stands still: stamps tie.
        fn stamp(&mut self) -> Timestamp {
            if self.next(3) == 0 {
                self.now += 1 + self.next(1_000);
            }
            Timestamp::from_micros(self.now)
        }

        fn begin(&mut self) {
            self.open.push((TxnId(self.next_id), TxnChain::default()));
            self.next_id += 1;
        }

        fn write(&mut self, i: usize) {
            let key = self.next(48) as u16;
            let pad = 400 + self.next(5_600) as usize;
            let (object, flags) = match self.next(24) {
                0 => (ObjectId(100), REC_FLAG_SYSTEM),
                1 => (ObjectId(101), REC_FLAG_HEAP),
                2 => (ObjectId(7), 0),
                n => (ObjectId(100 + n % 3), 0),
            };
            let (old, new) = (row(key, pad), row(key, pad / 2));
            let (id, chain) = &self.open[i];
            let payload = LogPayloadView::UpdateRecord {
                slot: 0,
                old: &old,
                new: &new,
            };
            let at = self
                .log
                .append_batch(chain, &mut [rec!(*id, object, flags, payload)]);
            self.first.entry(*id).or_insert(at.start);
            self.lsns.push(at.start);
        }

        fn commit(&mut self, i: usize) {
            let at = self.stamp();
            let (id, chain) = self.open.remove(i);
            let lsn = commit(&self.log, id, &chain, at);
            self.lsns.push(lsn);
            self.first.entry(id).or_insert(lsn);
            self.stamps.push((at, true));
            self.committed.push((id, lsn));
        }

        fn roll_back(&mut self, i: usize) {
            let (id, chain) = self.open.remove(i);
            let end = rec!(id, ObjectId::NONE, 0, LogPayloadView::End);
            self.lsns
                .push(self.log.append_batch(&chain, &mut [end]).start);
        }

        fn checkpoint(&mut self) {
            let at = self.stamp();
            let mut begin = rec!(
                TxnId::NONE,
                ObjectId::NONE,
                0,
                LogPayloadView::CheckpointBegin { at }
            );
            let begin_lsn = self.log.append_stamped(None, &mut begin, &|| at).start;
            let tables = [0u8; 8];
            let payload = LogPayloadView::CheckpointEnd {
                at,
                begin_lsn,
                tables: &tables,
            };
            let mut end = rec!(TxnId::NONE, ObjectId::NONE, 0, payload);
            self.lsns
                .push(self.log.append_stamped(None, &mut end, &|| at).start);
            self.stamps.push((at, false));
        }

        /// Truncate below a record at least 3 MiB behind the tail, so the
        /// retained log keeps three segments or more.
        fn truncate(&mut self) {
            let keep = self.log.tail_lsn().0.saturating_sub(3 << 20);
            let old = self.lsns.partition_point(|l| l.0 < keep);
            if old > 0 {
                let i = self.next(old as u64) as usize;
                let at = self.lsns[i];
                self.log.flush_to(self.log.tail_lsn());
                self.log.truncate_before(at);
            }
        }

        /// Lose the tail past a random flush point, as a crash does.
        fn crash(&mut self) {
            let at = self.lsns.len() - 1 - self.next(self.lsns.len().min(64) as u64) as usize;
            self.log.flush_to(self.lsns[at]);
            self.log.discard_unflushed();
            self.after_cut();
        }

        /// Damage one of the newest records and cut the log there.
        fn damage(&mut self) {
            let at = self.lsns.len() - 1 - self.next(self.lsns.len().min(16) as u64) as usize;
            let victim = self.lsns[at];
            self.log.flush_to(self.log.tail_lsn());
            assert!(self.log.corrupt_byte_at(victim.0 + 9, 0x10));
            let err = self.log.get_record_deep(victim).err().expect("damaged");
            assert!(self.log.cut_at_damage(&err));
            self.after_cut();
        }

        fn after_cut(&mut self) {
            let tail = self.log.tail_lsn();
            self.open.clear();
            self.lsns.retain(|l| *l < tail);
        }

        /// One random step: which cut it made, if any.
        fn step(&mut self) -> Cut {
            let open = self.open.len();
            let mut pick = self.next(open.max(1) as u64) as usize;
            // The oldest open transaction runs long: it ends one time in
            // forty it is picked, so its chain crosses segments.
            if pick == 0 && open > 1 && self.next(40) != 0 {
                pick = 1;
            }
            match self.next(100) {
                0..=59 if open > 0 => self.write(pick),
                60..=71 if open > 0 => self.commit(pick),
                72..=74 if open > 0 => self.roll_back(pick),
                75..=78 => self.checkpoint(),
                79 => self.truncate(),
                80 if self.next(6) == 0 && !self.lsns.is_empty() => {
                    self.crash();
                    return Cut::Crash;
                }
                81 if self.next(6) == 0 && !self.lsns.is_empty() => {
                    self.damage();
                    return Cut::Damage;
                }
                _ if open < 6 => self.begin(),
                _ => {}
            }
            Cut::None
        }
    }

    /// What the twin test compares: everything but the pass's own extent.
    type Answer = (
        Vec<TargetTxn>,
        Lsn,
        BTreeMap<(ObjectId, Vec<u8>), Lsn>,
        HashMap<(ObjectId, Vec<u8>), ConflictInfo>,
        BTreeSet<ObjectId>,
    );

    fn answer(h: Harvest) -> Answer {
        (
            h.targets,
            h.split_lsn,
            h.touched,
            h.conflicts,
            h.unsupported,
        )
    }

    /// The harvest from the summaries' start, checked against the harvest
    /// from the truncation point; the bounded one, when it succeeds.
    fn twin(log: &LogManager, target: &RepairTarget) -> Option<Harvest> {
        let whole = harvest_from(log, target, log.truncation_point());
        match (whole, harvest(log, target)) {
            (Ok(whole), Ok(bounded)) => {
                assert_eq!(answer(whole), answer(bounded.clone()), "{target:?}");
                Some(bounded)
            }
            (Err(whole), Err(bounded)) => {
                assert_eq!(whole.to_string(), bounded.to_string(), "{target:?}");
                None
            }
            (whole, bounded) => panic!("{target:?}: whole {whole:?}, bounded {bounded:?}"),
        }
    }

    #[test]
    fn bounded_harvest_equals_the_whole_log_harvest() {
        // The cases the probes met, summed over the seeds.
        let (mut txns, mut windows, mut checkpoint_ties) = (0, 0, 0);
        let (mut crosses_segment, mut reruns, mut crosses_truncation) = (0, 0, 0);
        let (mut after_crash, mut after_damage, mut conflicts) = (0, 0, 0);
        for seed in [0x9E37_79B9_u64, 0x85EB_CA6B, 0xC2B2_AE35] {
            let mut d = RandomLog::new(seed);
            for step in 1..=2_400 {
                let cut = d.step();
                if cut == Cut::None && step % 400 != 0 {
                    continue;
                }
                let trunc = d.log.truncation_point();
                // The oldest retained commit, then recent and random ones.
                let tail = d.log.tail_lsn();
                let oldest = d.committed.iter().find(|(_, l)| *l >= trunc && *l < tail);
                let mut picks: Vec<BTreeSet<TxnId>> =
                    oldest.map(|c| [c.0].into()).into_iter().collect();
                for _ in 0..4 {
                    let n = d.committed.len() as u64;
                    if n == 0 {
                        break;
                    }
                    let mut ids = BTreeSet::new();
                    for _ in 0..1 + d.next(3) {
                        let back = if d.next(2) == 0 { n.min(200) } else { n };
                        let i = (n - 1 - d.next(back)) as usize;
                        ids.insert(d.committed[i].0);
                    }
                    picks.push(ids);
                }
                for ids in picks {
                    let Some(h) = twin(&d.log, &RepairTarget::Txns(ids)) else {
                        continue;
                    };
                    txns += 1;
                    after_crash += (cut == Cut::Crash) as u32;
                    after_damage += (cut == Cut::Damage) as u32;
                    conflicts += !h.conflicts.is_empty() as u32;
                    for t in &h.targets {
                        let commit_seg = d.log.first_segment_where(|s| s.max_stamp >= t.commit_at);
                        crosses_segment += (t.first_lsn < commit_seg) as u32;
                        crosses_truncation += (d.first[&t.id] < trunc) as u32;
                    }
                }
                for _ in 0..4 {
                    let n = d.stamps.len() as u64;
                    if n == 0 {
                        break;
                    }
                    let back = if d.next(2) == 0 { n.min(200) } else { n };
                    let i = (n - 1 - d.next(back)) as usize;
                    let (from, commit) = d.stamps[i];
                    let to = from.plus_micros(d.next(3_000));
                    let Some(h) = twin(&d.log, &RepairTarget::TimeWindow { from, to }) else {
                        continue;
                    };
                    windows += 1;
                    checkpoint_ties += !commit as u32;
                    let start = d.log.first_segment_where(|s| s.max_stamp >= from);
                    reruns += (h.split_lsn < start) as u32;
                }
            }
            assert!(
                d.log.retained_bytes() > 2 << 20,
                "seed {seed:#x}: three segments"
            );
        }
        assert!(
            txns >= 30 && windows >= 30,
            "{txns} txns, {windows} windows"
        );
        assert!(checkpoint_ties > 0 && conflicts > 0);
        assert!(after_crash > 0 && after_damage > 0);
        assert!(
            crosses_segment > 0 && reruns > 0 && crosses_truncation > 0,
            "{crosses_segment} cross a segment, {reruns} rerun, \
             {crosses_truncation} cross the truncation point"
        );
    }

    #[test]
    fn a_commit_whose_stamp_cannot_be_read_fails_typed() {
        let log = LogManager::new(LogConfig::default());
        let (old, new) = (row(1, 8), row(1, 4));
        let write = |txn: TxnId, chain: &TxnChain| {
            let payload = LogPayloadView::UpdateRecord {
                slot: 0,
                old: &old,
                new: &new,
            };
            log.append_batch(chain, &mut [rec!(txn, ObjectId(100), 0, payload)]);
        };
        let (t1, t2) = (TxnChain::default(), TxnChain::default());
        write(TxnId(1), &t1);
        commit(&log, TxnId(1), &t1, Timestamp::from_secs(1));
        let mut h = harvest(&log, &RepairTarget::Txns([TxnId(1)].into())).unwrap();

        // T2 writes the harvested key after the pass, and its commit's
        // stamp is damaged: frame header, record header, kind tag, stamp.
        write(TxnId(2), &t2);
        let c2 = commit(&log, TxnId(2), &t2, Timestamp::from_secs(2));
        assert!(log.corrupt_byte_at(c2.0 + 8 + RECORD_HEADER_BYTES as u64 + 1 + 2, 0x40));
        let typed = |e: Error| {
            matches!(
                e,
                Error::Corruption {
                    kind: CorruptionKind::LogBlock,
                    lsn: Some(l),
                    ..
                } if l == c2
            )
        };
        assert!(typed(refresh_conflicts(&log, &mut h).unwrap_err()));
        assert!(h.conflicts.is_empty(), "no conflict at a made-up stamp");
        let window = RepairTarget::TimeWindow {
            from: Timestamp::from_secs(2),
            to: Timestamp::from_secs(2),
        };
        assert!(typed(harvest(&log, &window).unwrap_err()));
    }
}
