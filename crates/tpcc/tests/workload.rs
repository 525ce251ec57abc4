//! TPC-C workload integration tests: consistency invariants under the mixed
//! workload, and the as-of StockLevel query.

use rewind_core::{Database, DbConfig, Value};
use rewind_tpcc::{
    create_schema, load_initial, run_mixed, stock_level, stock_level_asof, DriverConfig, TpccScale,
};
use std::sync::Arc;

fn build(scale: &TpccScale) -> Arc<Database> {
    let db = Arc::new(
        Database::create(DbConfig {
            buffer_pages: 2048,
            ..DbConfig::default()
        })
        .unwrap(),
    );
    create_schema(&db).unwrap();
    load_initial(&db, scale).unwrap();
    db
}

#[test]
fn load_produces_consistent_counts() {
    let scale = TpccScale::tiny();
    let db = build(&scale);
    assert_eq!(
        db.count_approx("warehouse").unwrap() as u64,
        scale.warehouses
    );
    assert_eq!(
        db.count_approx("district").unwrap() as u64,
        scale.warehouses * scale.districts_per_warehouse
    );
    assert_eq!(
        db.count_approx("customer").unwrap() as u64,
        scale.warehouses * scale.districts_per_warehouse * scale.customers_per_district
    );
    assert_eq!(db.count_approx("item").unwrap() as u64, scale.items);
    assert_eq!(
        db.count_approx("stock").unwrap() as u64,
        scale.warehouses * scale.items
    );
    assert_eq!(
        db.count_approx("orders").unwrap() as u64,
        scale.warehouses * scale.districts_per_warehouse * scale.initial_orders_per_district
    );
}

#[test]
fn mixed_workload_maintains_invariants() {
    let scale = TpccScale::default();
    let db = build(&scale);
    let cfg = DriverConfig {
        threads: 4,
        txns_per_thread: 100,
        ..DriverConfig::default()
    };
    let stats = run_mixed(&db, &scale, &cfg).unwrap();
    assert_eq!(stats.committed() + stats.intentional_rollbacks, 400);
    assert!(
        stats.new_orders > 100,
        "mix should be ~45% NewOrder: {stats:?}"
    );
    assert!(stats.tpm_c() > 0.0);

    // Invariant: every order's o_ol_cnt matches its order_line rows, and
    // d_next_o_id is above every existing order id.
    db.with_txn(|txn| {
        for w in 1..=scale.warehouses {
            for d in 1..=scale.districts_per_warehouse {
                let district = db
                    .get(txn, "district", &[Value::U64(w), Value::U64(d)])?
                    .unwrap();
                let next_o_id = district[5].as_u64()?;
                let orders = db.scan_prefix(txn, "orders", &[Value::U64(w), Value::U64(d)])?;
                for order in &orders {
                    let o_id = order[2].as_u64()?;
                    assert!(o_id < next_o_id, "order {o_id} >= next_o_id {next_o_id}");
                    let lines = db.scan_prefix(
                        txn,
                        "order_line",
                        &[Value::U64(w), Value::U64(d), Value::U64(o_id)],
                    )?;
                    assert_eq!(lines.len() as u64, order[6].as_u64()?, "o_ol_cnt mismatch");
                }
            }
        }
        Ok(())
    })
    .unwrap();

    // History heap received payment rows.
    assert!(db.count_approx("history").unwrap() > 0);

    // Structural integrity after the whole mixed run.
    db.check_consistency().unwrap();
}

#[test]
fn intentional_rollbacks_leave_no_trace() {
    let scale = TpccScale::tiny();
    let db = build(&scale);
    let orders_before = db.count_approx("orders").unwrap();
    // 100% poison: every NewOrder rolls back
    let cfg = DriverConfig {
        threads: 2,
        txns_per_thread: 30,
        rollback_pct: 100,
        ..DriverConfig::default()
    };
    let stats = run_mixed(&db, &scale, &cfg).unwrap();
    assert!(stats.intentional_rollbacks > 0);
    assert_eq!(
        stats.new_orders as usize + orders_before,
        db.count_approx("orders").unwrap()
    );
    // district next_o_id may have advanced and rolled back; verify ordering
    db.with_txn(|txn| {
        let district = db
            .get(txn, "district", &[Value::U64(1), Value::U64(1)])?
            .unwrap();
        let next = district[5].as_u64()?;
        let orders = db.scan_prefix(txn, "orders", &[Value::U64(1), Value::U64(1)])?;
        for o in orders {
            assert!(o[2].as_u64()? < next);
        }
        Ok(())
    })
    .unwrap();
}

#[test]
fn stock_level_matches_asof_at_quiesced_time() {
    let scale = TpccScale::tiny();
    let db = build(&scale);
    db.clock().advance_secs(60);
    db.checkpoint().unwrap();

    // quiesced: live result now
    let live = db.with_txn(|txn| stock_level(&db, txn, 1, 1, 15)).unwrap();
    let t = db.clock().now();
    db.clock().advance_secs(60);

    // churn afterwards
    let cfg = DriverConfig {
        threads: 2,
        txns_per_thread: 50,
        ..DriverConfig::default()
    };
    run_mixed(&db, &scale, &cfg).unwrap();

    // as-of the quiesced time: must match the live result taken then
    let snap = db.create_snapshot_asof("sl", t).unwrap();
    let asof = stock_level_asof(&snap, 1, 1, 15).unwrap();
    assert_eq!(
        asof, live,
        "as-of StockLevel must reproduce the historical result"
    );
    snap.wait_undo_complete().unwrap();
    db.drop_snapshot("sl").unwrap();
}

#[test]
fn workload_survives_crash_recovery() {
    let scale = TpccScale::tiny();
    let db = build(&scale);
    let cfg = DriverConfig {
        threads: 2,
        txns_per_thread: 40,
        ..DriverConfig::default()
    };
    let db_arc = db;
    run_mixed(&db_arc, &scale, &cfg).unwrap();
    let orders = db_arc.count_approx("orders").unwrap();

    let db = Arc::try_unwrap(db_arc).map_err(|_| ()).expect("sole owner");
    let artifacts = db.simulate_crash();
    let db = Database::recover(artifacts).unwrap();
    assert_eq!(
        db.count_approx("orders").unwrap(),
        orders,
        "committed orders survive"
    );

    // and the workload keeps running
    let db = Arc::new(db);
    let stats = run_mixed(
        &db,
        &scale,
        &DriverConfig {
            threads: 2,
            txns_per_thread: 10,
            ..cfg
        },
    )
    .unwrap();
    assert_eq!(stats.committed(), 20);
}
