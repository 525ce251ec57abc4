//! Log harvest: one forward pass over the retained log that finds the
//! target transactions, the row keys they touched, and every *later*
//! committed writer of those keys.
//!
//! The walk uses the zero-copy `LogRecordHeader`/`LogPayloadView` decode
//! path: headers navigate, and only Insert/Delete/Update payloads have
//! their embedded key bytes inspected (in place, never copied until a key
//! is actually recorded).
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
#[derive(Clone, Copy, Debug)]
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
    /// Log records visited by the pass.
    pub records_scanned: u64,
    /// Where the pass stopped (the log tail at harvest time). Conflicts
    /// are complete only up to here; [`refresh_conflicts`] extends them.
    pub scan_end: Lsn,
}

/// A row write observed in the log, buffered per transaction until its
/// commit fate is known.
#[derive(Clone, Debug)]
struct PendingWrite {
    object: ObjectId,
    key: Vec<u8>,
    lsn: Lsn,
    heap: bool,
}

/// Extract the row-key bytes a payload addresses, mirroring the
/// lock-reacquisition convention: leaf records lead with `[u16 klen][key]`.
fn key_of<'a>(view: &LogPayloadView<'a>) -> Option<&'a [u8]> {
    let rec: &[u8] = match *view {
        LogPayloadView::InsertRecord { bytes, .. } => bytes,
        LogPayloadView::DeleteRecord { old, .. } => old,
        LogPayloadView::UpdateRecord { old, .. } => old,
        _ => return None,
    };
    if rec.len() < 2 {
        return None;
    }
    let klen = u16::from_le_bytes([rec[0], rec[1]]) as usize;
    if 2 + klen > rec.len() {
        return None;
    }
    Some(&rec[2..2 + klen])
}

fn is_row_write(header: &LogRecordHeader) -> bool {
    header.txn.is_valid()
        && matches!(
            header.kind,
            PayloadKind::InsertRecord | PayloadKind::DeleteRecord | PayloadKind::UpdateRecord
        )
        && !header.is_system()
}

/// Run the harvest pass over the retained log.
pub fn harvest(log: &LogManager, target: &RepairTarget) -> Result<Harvest> {
    if let RepairTarget::TimeWindow { from, to } = target {
        if from > to {
            return Err(Error::InvalidArg(format!(
                "repair time window is empty ({from} > {to})"
            )));
        }
    }

    // Per-transaction buffers, held until the txn's fate is known.
    #[derive(Default)]
    struct TxnBuf {
        first_lsn: Lsn,
        last_lsn: Lsn,
        writes: Vec<PendingWrite>,
    }
    let mut pending: HashMap<u64, TxnBuf> = HashMap::new();
    // Committed transactions, in commit order: (txn, commit info, writes).
    let mut committed: Vec<(TargetTxn, Vec<PendingWrite>)> = Vec::new();
    let mut scanned = 0u64;

    let scan_end = log.scan_views(log.truncation_point(), Lsn::MAX, |header, view| {
        scanned += 1;
        if !header.txn.is_valid() {
            return Ok(true);
        }
        match header.kind {
            PayloadKind::Commit => {
                let at = view.time_stamp().ok_or_else(|| {
                    Error::corruption(format!("commit at {} without stamp", header.lsn))
                })?;
                let buf = pending.remove(&header.txn.0).unwrap_or_default();
                committed.push((
                    TargetTxn {
                        id: header.txn,
                        first_lsn: if buf.first_lsn.is_valid() {
                            buf.first_lsn
                        } else {
                            header.lsn
                        },
                        last_lsn: buf.last_lsn,
                        commit_lsn: header.lsn,
                        commit_at: at,
                    },
                    buf.writes,
                ));
            }
            PayloadKind::End => {
                // End without a preceding commit: the txn rolled back; its
                // net effect is nil either way (writes + CLRs cancel). An
                // `SmoEnd` closes a structure modification, not the
                // transaction, and falls through below.
                pending.remove(&header.txn.0);
            }
            _ => {
                // Track the chain extent through system records too — the
                // witness must split before *all* of a target's records,
                // structure modifications included.
                let buf = pending.entry(header.txn.0).or_default();
                if !buf.first_lsn.is_valid() {
                    buf.first_lsn = header.lsn;
                }
                buf.last_lsn = header.lsn;
                if is_row_write(header) {
                    if let Some(key) = key_of(view) {
                        buf.writes.push(PendingWrite {
                            object: header.object,
                            key: key.to_vec(),
                            lsn: header.lsn,
                            heap: header.flags & REC_FLAG_HEAP != 0,
                        });
                    }
                }
            }
        }
        Ok(true)
    })?;

    // Classify committed transactions into targets and the rest.
    let is_target = |t: &TargetTxn| match target {
        RepairTarget::Txns(ids) => ids.contains(&t.id),
        RepairTarget::TimeWindow { from, to } => t.commit_at >= *from && t.commit_at <= *to,
    };
    let mut out = Harvest::default();
    let mut others: Vec<(TargetTxn, Vec<PendingWrite>)> = Vec::new();
    for (txn, writes) in committed {
        if is_target(&txn) {
            for w in &writes {
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
            out.targets.push(txn);
        } else {
            others.push((txn, writes));
        }
    }
    out.targets.sort_by_key(|t| t.id);
    out.records_scanned = scanned;
    out.scan_end = scan_end;

    match target {
        RepairTarget::Txns(ids) => {
            for id in ids {
                if !out.targets.iter().any(|t| t.id == *id) {
                    return Err(Error::InvalidArg(if pending.contains_key(&id.0) {
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
            if out.targets.is_empty() {
                return Err(Error::InvalidArg(format!(
                    "no transaction committed in [{from}, {to}]"
                )));
            }
        }
    }

    // The witness splits just before the earliest target record.
    let first = out
        .targets
        .iter()
        .map(|t| t.first_lsn)
        .min()
        .ok_or_else(|| Error::Internal("harvest matched no target transactions".into()))?;
    out.split_lsn = Lsn(first.0.saturating_sub(1));

    // Conflicts: non-target transactions that committed after the split and
    // wrote a harvested key. Earliest such writer wins the report slot.
    for (txn, writes) in &others {
        if txn.commit_lsn <= out.split_lsn {
            continue;
        }
        for w in writes {
            let id = (w.object, w.key.clone());
            if out.touched.contains_key(&id) {
                out.conflicts.entry(id).or_insert(ConflictInfo {
                    txn: txn.id,
                    commit_lsn: txn.commit_lsn,
                    commit_at: txn.commit_at,
                });
            }
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
/// Each new commit's full chain is walked backward (`prev_lsn`), so writes
/// the transaction made *before* `scan_end` are found too.
pub fn refresh_conflicts(log: &LogManager, harvest: &mut Harvest) -> Result<()> {
    let targets: BTreeSet<TxnId> = harvest.targets.iter().map(|t| t.id).collect();
    let mut commits: Vec<(TxnId, Lsn, Timestamp, Lsn)> = Vec::new();
    let new_end = log.scan_views(harvest.scan_end, Lsn::MAX, |header, view| {
        if header.kind == PayloadKind::Commit
            && header.txn.is_valid()
            && !targets.contains(&header.txn)
        {
            let at = view.time_stamp().unwrap_or_default();
            commits.push((header.txn, header.lsn, at, header.prev_lsn));
        }
        Ok(true)
    })?;
    for (id, commit_lsn, commit_at, mut cur) in commits {
        while cur.is_valid() {
            let rec = log.get_record_ref(cur)?;
            let (header, view) = rec.view()?;
            if is_row_write(&header) {
                if let Some(key) = key_of(&view) {
                    let kid = (header.object, key.to_vec());
                    if harvest.touched.contains_key(&kid) {
                        harvest.conflicts.entry(kid).or_insert(ConflictInfo {
                            txn: id,
                            commit_lsn,
                            commit_at,
                        });
                    }
                }
            }
            cur = header.prev_lsn;
        }
    }
    harvest.scan_end = new_end;
    Ok(())
}
