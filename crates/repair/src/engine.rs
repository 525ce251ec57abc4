//! Flashback orchestration: harvest → witness → plan → apply.
//!
//! Apply runs as **one regular logged transaction** through the live DML
//! path: every compensation is redo/undo logged, locks are taken like any
//! user write, secondary indexes are maintained, and the repair itself is
//! therefore (a) undoable, (b) crash-safe, and (c) visible to later as-of
//! queries exactly like any other transaction — including to a later
//! flashback of the repair transaction itself.

use crate::harvest::{self, ConflictInfo, Harvest, RepairTarget, TargetTxn};
use crate::plan::{self, KeyRepair, RepairAction, RepairPlan, UnsupportedNote};
use rewind_common::{Lsn, Result, TxnId};
use rewind_core::Database;
use rewind_obs::EventKind;
use std::sync::atomic::{AtomicU64, Ordering};

/// What to do with a key whose witness restore would destroy a later
/// committed (non-target) write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConflictPolicy {
    /// Leave conflicted keys at their live value; repair the rest. The
    /// report lists every key left behind.
    Skip,
    /// Restore conflicted keys to the witness image anyway (the later
    /// write is consciously sacrificed).
    Overwrite,
    /// Dry run: plan and report everything, change nothing.
    ReportOnly,
}

/// Knobs for one flashback run.
#[derive(Clone, Debug)]
pub struct RepairConfig {
    /// Conflict handling.
    pub policy: ConflictPolicy,
}

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig {
            policy: ConflictPolicy::Skip,
        }
    }
}

/// The outcome of one key at apply time.
#[derive(Clone, Debug)]
pub struct ConflictReport {
    /// The key's planned repair.
    pub entry: KeyRepair,
    /// The later writer that caused the skip (absent for conflicts that
    /// were overwritten or that appeared only at apply time).
    pub later: Option<ConflictInfo>,
}

/// What a flashback run did.
#[derive(Clone, Debug, Default)]
pub struct RepairReport {
    /// The transactions reverted.
    pub targets: Vec<TargetTxn>,
    /// The witness split LSN.
    pub witness_split: Lsn,
    /// Keys examined (harvested from the targets' log records).
    pub keys_examined: usize,
    /// Compensations actually applied.
    pub applied: usize,
    /// Keys already at their witness image.
    pub noops: usize,
    /// Conflicted keys left at the live value (policy [`ConflictPolicy::Skip`]).
    pub skipped_conflicts: Vec<ConflictReport>,
    /// Conflicted keys restored anyway (policy [`ConflictPolicy::Overwrite`]).
    pub overwritten_conflicts: usize,
    /// Objects repair could not cover row-by-row.
    pub unsupported: Vec<UnsupportedNote>,
    /// The compensation transaction, when one ran and logged anything.
    pub repair_txn: Option<TxnId>,
    /// The full per-key plan (inspect for auditing; [`RepairPlan::entries`]
    /// carries witness and live images per key).
    pub plan: RepairPlan,
}

static WITNESS_SEQ: AtomicU64 = AtomicU64::new(1);

/// Plan a flashback without touching the database: harvest the log, mount
/// the witness, diff, and return the plan plus report skeleton. This is
/// exactly [`flashback`] with [`ConflictPolicy::ReportOnly`].
pub fn plan_flashback(db: &Database, target: &RepairTarget) -> Result<RepairReport> {
    flashback(
        db,
        target,
        &RepairConfig {
            policy: ConflictPolicy::ReportOnly,
        },
    )
}

/// Surgically revert the effects of the target transactions while
/// preserving all later non-conflicting work.
pub fn flashback(db: &Database, target: &RepairTarget, cfg: &RepairConfig) -> Result<RepairReport> {
    let obs = db.log().obs().clone();
    let harvest_started = obs.now_us();
    let harvest = harvest::harvest(db.log(), target)?;
    obs.record(
        EventKind::RepairHarvest,
        harvest.split_lsn.0,
        harvest.targets.len() as u64,
        obs.now_us().saturating_sub(harvest_started),
    );
    let witness_name = format!(
        "repair-witness@{}#{}",
        harvest.split_lsn,
        WITNESS_SEQ.fetch_add(1, Ordering::Relaxed)
    );
    let label = harvest
        .targets
        .first()
        .map(|t| t.commit_at)
        .unwrap_or_default();
    let mut harvest = harvest;
    let witness = db.create_snapshot_at_lsn(&witness_name, label, harvest.split_lsn)?;
    obs.record(EventKind::RepairWitness, harvest.split_lsn.0, 0, 0);
    let result = (|| {
        let plan_started = obs.now_us();
        let mut plan = plan::build_plan(db, &witness, &harvest)?;
        // Close the harvest→plan window: a transaction that committed
        // while the plan was being built is visible to the plan's live
        // reads but absent from the harvested conflict map — without this
        // refresh the Skip policy would restore over its committed write.
        harvest::refresh_conflicts(db.log(), &mut harvest)?;
        for e in &mut plan.entries {
            if e.action != RepairAction::Noop && e.conflict.is_none() {
                e.conflict = harvest
                    .conflicts
                    .get(&(e.object, e.key_bytes.clone()))
                    .copied();
            }
        }
        obs.record(
            EventKind::RepairDiff,
            harvest.split_lsn.0,
            plan.entries.len() as u64,
            obs.now_us().saturating_sub(plan_started),
        );
        let apply_started = obs.now_us();
        let report = apply(db, &harvest, plan, cfg)?;
        obs.record(
            EventKind::RepairApply,
            harvest.split_lsn.0,
            report.applied as u64,
            obs.now_us().saturating_sub(apply_started),
        );
        Ok(report)
    })();
    // The witness is scratch state; whatever happened above is the outcome
    // that matters. (Dropping a snapshot we created cannot meaningfully
    // fail, and a leaked name must not mask a committed repair.)
    let _ = db.drop_snapshot(&witness_name);
    result
}

fn apply(
    db: &Database,
    harvest: &Harvest,
    plan: RepairPlan,
    cfg: &RepairConfig,
) -> Result<RepairReport> {
    let mut report = RepairReport {
        targets: plan.targets.clone(),
        witness_split: plan.split_lsn,
        keys_examined: harvest.touched.len(),
        unsupported: plan.unsupported.clone(),
        ..RepairReport::default()
    };

    if cfg.policy == ConflictPolicy::ReportOnly {
        report.noops = plan.entries.len() - plan.actionable();
        for e in &plan.entries {
            if let Some(c) = e.conflict {
                report.skipped_conflicts.push(ConflictReport {
                    entry: e.clone(),
                    later: Some(c),
                });
            }
        }
        report.plan = plan;
        return Ok(report);
    }

    let mut applied = 0usize;
    let mut overwritten = 0usize;
    let mut noops = 0usize;
    let mut skipped: Vec<ConflictReport> = Vec::new();
    let txn = db.begin();
    let txn_id = txn.id();
    let result = (|| {
        for e in &plan.entries {
            if e.action == RepairAction::Noop {
                noops += 1;
                continue;
            }
            if e.conflict.is_some() && cfg.policy == ConflictPolicy::Skip {
                skipped.push(ConflictReport {
                    entry: e.clone(),
                    later: e.conflict,
                });
                continue;
            }
            // Revalidate under an X lock: the planner read without locks,
            // so a concurrent writer may have moved the row since.
            let current = db.get_for_update(&txn, &e.table, &e.key)?;
            if current != e.live {
                // The row changed between plan and apply — a conflict that
                // only materialized now. Same policy decision applies.
                if cfg.policy == ConflictPolicy::Skip {
                    skipped.push(ConflictReport {
                        entry: e.clone(),
                        later: None,
                    });
                    continue;
                }
            }
            // Re-derive the action against the locked row so apply never
            // acts on a stale diff.
            let did_apply = match (&e.witness, &current) {
                (None, None) => false,
                (Some(w), Some(l)) if w == l => false,
                (Some(w), Some(_)) => {
                    db.update(&txn, &e.table, w)?;
                    true
                }
                (Some(w), None) => {
                    db.insert(&txn, &e.table, w)?;
                    true
                }
                (None, Some(_)) => {
                    db.delete(&txn, &e.table, &e.key)?;
                    true
                }
            };
            if did_apply {
                applied += 1;
                // Only a restore that actually ran sacrificed a later write.
                if e.conflict.is_some() {
                    overwritten += 1;
                }
            } else {
                noops += 1;
            }
        }
        Ok(())
    })();
    match result {
        Ok(()) => db.commit(txn)?,
        Err(e) => {
            let _ = db.rollback(txn);
            return Err(e);
        }
    }
    report.applied = applied;
    report.noops = noops;
    report.overwritten_conflicts = if cfg.policy == ConflictPolicy::Overwrite {
        overwritten
    } else {
        0
    };
    report.skipped_conflicts = skipped;
    report.repair_txn = (applied > 0).then_some(txn_id);
    report.plan = plan;
    Ok(report)
}
