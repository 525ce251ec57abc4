//! Logical diff and compensation planning: compare witness pre-images
//! against the live database and decide, per key, how to put the pre-image
//! back.
//!
//! The witness is read by point reads of the touched keys only, so each
//! read prepares the pages on its own path (one `PreparePageAsOf` per page
//! touched, paper §5.3) and a narrow repair of a huge table never prepares
//! beyond the keys it touches.

use crate::harvest::{ConflictInfo, Harvest, TargetTxn};
use rewind_access::value::decode_row;
use rewind_access::Row;
use rewind_common::{Lsn, ObjectId, Result};
use rewind_core::{Database, SnapshotDb, TableInfo, TableKind};
use std::collections::HashMap;
use std::sync::Arc;

/// How one key is put back to its witness state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepairAction {
    /// Witness and live already agree; nothing to do.
    Noop,
    /// The target deleted the row (and nobody resurrected it): re-insert
    /// the witness image.
    Reinsert,
    /// The target inserted the row (and nobody else claimed the key):
    /// delete it.
    Delete,
    /// The target updated the row: restore the witness image.
    RestoreUpdate,
}

/// The planned repair of one `(table, key)`.
#[derive(Clone, Debug)]
pub struct KeyRepair {
    /// Live table name.
    pub table: String,
    /// The owning object.
    pub object: ObjectId,
    /// Encoded key bytes (as they appear in the log and the tree).
    pub key_bytes: Vec<u8>,
    /// Decoded key values (empty only for [`RepairAction::Noop`] entries
    /// whose row exists on neither side).
    pub key: Row,
    /// The pre-image read from the witness snapshot, if the row existed.
    pub witness: Option<Row>,
    /// The live row observed at plan time (revalidated under lock at
    /// apply time).
    pub live: Option<Row>,
    /// What apply will do.
    pub action: RepairAction,
    /// The later committed writer, when one exists and the action is not a
    /// no-op.
    pub conflict: Option<ConflictInfo>,
}

/// A table (or object) the planner had to leave alone, with the reason.
#[derive(Clone, Debug)]
pub struct UnsupportedNote {
    /// The object left alone.
    pub object: ObjectId,
    /// Why (heap table, DDL/catalog, dropped table, schema drift).
    pub reason: String,
}

/// The full compensation plan.
#[derive(Clone, Debug, Default)]
pub struct RepairPlan {
    /// The witness split LSN.
    pub split_lsn: Lsn,
    /// The targets being reverted.
    pub targets: Vec<TargetTxn>,
    /// Per-key repairs, grouped by table then key order.
    pub entries: Vec<KeyRepair>,
    /// Objects skipped wholesale.
    pub unsupported: Vec<UnsupportedNote>,
}

impl RepairPlan {
    /// Entries that would change the database (non-noop).
    pub fn actionable(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.action != RepairAction::Noop)
            .count()
    }
}

fn schemas_agree(a: &TableInfo, b: &TableInfo) -> bool {
    a.kind == b.kind && a.schema == b.schema
}

/// Build the compensation plan: read the witness pre-image and the live row
/// for every harvested key and derive the action. Live reads here are
/// unlocked (the plan is advisory); apply re-reads each row under an X
/// lock and re-derives the action before touching anything.
pub fn build_plan(db: &Database, witness: &SnapshotDb, harvest: &Harvest) -> Result<RepairPlan> {
    let mut plan = RepairPlan {
        split_lsn: harvest.split_lsn,
        targets: harvest.targets.clone(),
        ..RepairPlan::default()
    };
    for obj in &harvest.unsupported {
        plan.unsupported.push(UnsupportedNote {
            object: *obj,
            reason: if obj.is_system() {
                "catalog/DDL change; recover the table with restore_table_from_snapshot".into()
            } else {
                "heap table (rows addressed by RID, not key); \
                 restore it wholesale from the witness snapshot"
                    .into()
            },
        });
    }

    // Resolve live and witness catalogs once.
    let live_tables: HashMap<u64, Arc<TableInfo>> = db
        .list_tables()?
        .into_iter()
        .map(|t| (t.id.0, Arc::new(t)))
        .collect();
    let live_index_ids: std::collections::HashSet<u64> = live_tables
        .values()
        .flat_map(|t| t.indexes.iter().map(|i| i.id.0))
        .collect();
    let witness_tables: HashMap<u64, Arc<TableInfo>> = witness
        .list_tables()?
        .into_iter()
        .map(|t| (t.id.0, Arc::new(t)))
        .collect();
    let witness_index_ids: std::collections::HashSet<u64> = witness_tables
        .values()
        .flat_map(|t| t.indexes.iter().map(|i| i.id.0))
        .collect();

    // Group keys by object so skip decisions are per-table.
    let mut by_object: HashMap<ObjectId, Vec<&Vec<u8>>> = HashMap::new();
    for (object, key) in harvest.touched.keys() {
        by_object.entry(*object).or_default().push(key);
    }
    let mut objects: Vec<ObjectId> = by_object.keys().copied().collect();
    objects.sort();

    let txn = db.begin();
    let result: Result<()> = (|| {
        for object in objects {
            let keys = &by_object[&object];
            // Secondary indexes repair themselves through table DML.
            if live_index_ids.contains(&object.0) || witness_index_ids.contains(&object.0) {
                continue;
            }
            let (Some(live_info), Some(wit_info)) =
                (live_tables.get(&object.0), witness_tables.get(&object.0))
            else {
                plan.unsupported.push(UnsupportedNote {
                    object,
                    reason: "table missing from the live or witness catalog (created or \
                             dropped around the target); recover it with \
                             restore_table_from_snapshot"
                        .into(),
                });
                continue;
            };
            if live_info.kind != TableKind::Tree {
                // Heap touches were already diverted by the harvest; this
                // covers a table whose kind itself drifted.
                plan.unsupported.push(UnsupportedNote {
                    object,
                    reason: "not a B-Tree table in the live catalog".into(),
                });
                continue;
            }
            if !schemas_agree(live_info, wit_info) {
                plan.unsupported.push(UnsupportedNote {
                    object,
                    reason: format!(
                        "schema of '{}' drifted between the witness and the live \
                         database; repair refuses to mix row shapes",
                        live_info.name
                    ),
                });
                continue;
            }

            let store = db.store(&txn);
            for key_bytes in keys {
                let w_bytes = witness.get_value_bytes(wit_info, key_bytes)?;
                let l_bytes = live_info.tree()?.get(&store, key_bytes)?;
                let witness_row = w_bytes.as_deref().map(decode_row).transpose()?;
                let live_row = l_bytes.as_deref().map(decode_row).transpose()?;
                let action = match (&witness_row, &live_row) {
                    (None, None) => RepairAction::Noop,
                    (Some(w), Some(l)) if w == l => RepairAction::Noop,
                    (Some(_), Some(_)) => RepairAction::RestoreUpdate,
                    (Some(_), None) => RepairAction::Reinsert,
                    (None, Some(_)) => RepairAction::Delete,
                };
                let key: Row = match witness_row.as_ref().or(live_row.as_ref()) {
                    Some(row) => live_info
                        .schema
                        .key_values(row)?
                        .into_iter()
                        .cloned()
                        .collect(),
                    None => Row::new(),
                };
                // A conflict only matters when the restore would actually
                // change something: if the later writer happened to leave
                // the row at its witness image (e.g. a previous repair),
                // there is nothing to destroy.
                let conflict = if action == RepairAction::Noop {
                    None
                } else {
                    harvest
                        .conflicts
                        .get(&(object, (*key_bytes).clone()))
                        .copied()
                };
                plan.entries.push(KeyRepair {
                    table: live_info.name.clone(),
                    object,
                    key_bytes: (*key_bytes).clone(),
                    key,
                    witness: witness_row,
                    live: live_row,
                    action,
                    conflict,
                });
            }
        }
        Ok(())
    })();
    // The planning transaction took no locks and logged nothing; commit is
    // the cheap way to retire it.
    db.commit(txn)?;
    result?;
    Ok(plan)
}
