//! Selective undo of an erroneous batch job — the flashback generalization
//! of the paper's §1 recovery story. Where `error_recovery.rs` restores a
//! dropped table wholesale, this example reverts exactly one committed
//! transaction's rows while every later write survives.
//!
//! ```text
//! cargo run --release --example flashback
//! ```

use rewind::repair::{flashback, ConflictPolicy, RepairConfig, RepairTarget};
use rewind::tpcc::{self, bad_credit_batch, create_schema, load_initial, TpccScale};
use rewind::{Database, DbConfig, Result, Value};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

fn main() -> Result<()> {
    let db = Arc::new(Database::create(DbConfig::default())?);
    db.set_undo_interval(Duration::from_secs(24 * 3600))?;
    let scale = TpccScale::default();
    create_schema(&db)?;
    load_initial(&db, &scale)?;
    db.clock().advance_mins(10);
    db.checkpoint()?;

    // ---- the application error --------------------------------------------
    // A promo script with a missing WHERE clause wipes every customer
    // balance in warehouse 1 — and commits.
    let bad_txn = {
        let txn = db.begin();
        let damaged = bad_credit_batch(&db, &txn, 1)?;
        let id = txn.id();
        db.commit(txn)?;
        println!("!!! bad batch committed as {id:?}, damaged {damaged} customers");
        id
    };
    db.clock().advance_mins(5);

    // Business continues after the mistake; none of this may be lost.
    db.with_txn(|txn| tpcc::payment(&db, txn, 2, 1, tpcc::txns::CustomerSelector::ById(1), 42.0))?;
    db.clock().advance_mins(5);

    // ---- the flashback ----------------------------------------------------
    // No guessing at timestamps, no restore: name the transaction, revert
    // its rows. The witness snapshot mounts just before its first log
    // record and prepares only the pages the reverted rows live on.
    let report = flashback(
        &db,
        &RepairTarget::Txns(BTreeSet::from([bad_txn])),
        &RepairConfig {
            policy: ConflictPolicy::Skip,
        },
    )?;
    println!(
        "flashback: {} rows reverted, {} already clean, {} conflicts skipped, \
         witness split at {}, repair committed as {:?}",
        report.applied,
        report.noops,
        report.skipped_conflicts.len(),
        report.witness_split,
        report.repair_txn,
    );

    // Damage gone, later work intact.
    db.with_txn(|txn| {
        let c = db
            .get(
                txn,
                "customer",
                &[Value::U64(1), Value::U64(1), Value::U64(1)],
            )?
            .unwrap();
        assert_ne!(c[9], Value::str("PROMO-APPLIED"));
        let w2 = db.get(txn, "warehouse", &[Value::U64(2)])?.unwrap();
        assert!(w2[3].as_f64()? >= 42.0, "the later payment survived");
        Ok(())
    })?;
    println!("damage reverted; post-error work preserved. no backup, no lost writes.");
    Ok(())
}
