//! End-to-end observability invariants over real engine traces.
//!
//! * **Count exactness on a serial trace** — the histograms are recorded
//!   in the same branch as the counters they describe, so on a
//!   single-threaded workload: commit-latency samples == durable commits,
//!   flush-stall samples == counted log flushes, as-of prepare samples ==
//!   pages prepared. This is what makes a histogram a trustworthy
//!   denominator (a p95 over an unknown population is noise).
//! * **Disabled obs is inert** — the identical serial workload with
//!   `ObsConfig::enabled = false` produces bit-identical I/O and pool
//!   accounting, records nothing, and exposes `obs_enabled 0`.
//! * **Recovery phases are reported** — `Database::recover` leaves a
//!   [`RecoveryReport`] with per-phase durations and record counts, and
//!   the ring carries the three recovery events. Durations come from the
//!   monotonic timebase, so they are real even with obs disabled.

use rewind_core::{Column, DataType, Database, DbConfig, Schema, Value};
use rewind_obs::{EventKind, MetricsSnapshot};

fn schema() -> Schema {
    Schema::new(
        vec![
            Column::new("id", DataType::U64),
            Column::new("v", DataType::Str),
        ],
        &["id"],
    )
    .unwrap()
}

fn build(obs_enabled: bool) -> Database {
    let mut config = DbConfig {
        checkpoint_interval_bytes: 0,
        ..DbConfig::default()
    };
    config.log.obs.enabled = obs_enabled;
    Database::create(config).unwrap()
}

/// A deterministic serial workload; returns the number of durable commits
/// it performed through `Database::commit`.
fn workload(db: &Database) -> u64 {
    db.with_txn(|txn| {
        db.create_table(txn, "t", schema())?;
        Ok(())
    })
    .unwrap();
    for i in 0..60u64 {
        db.with_txn(|txn| db.insert(txn, "t", &[Value::U64(i), Value::str("obs-trace")]))
            .unwrap();
    }
    1 + 60
}

#[test]
fn serial_trace_histogram_counts_are_exact() {
    let db = build(true);
    let obs = db.obs().clone();
    let commit0 = obs.commit_latency().count;
    let flush0 = obs.flush_stall().count;
    let flushes0 = db.log_io().log_flushes;
    let durable = || {
        let events = obs.events();
        events
            .iter()
            .filter(|e| e.kind == EventKind::CommitDurable)
            .count() as u64
    };
    let durable0 = durable();

    let commits = workload(&db);

    assert_eq!(
        obs.commit_latency().count - commit0,
        commits,
        "one commit-latency sample per durable commit"
    );
    assert_eq!(
        obs.flush_stall().count - flush0,
        db.log_io().log_flushes - flushes0,
        "one flush-stall sample per counted log flush"
    );

    // A read-only commit is not durable work: no sample.
    let before = obs.commit_latency().count;
    let txn = db.begin();
    db.commit(txn).unwrap();
    assert_eq!(obs.commit_latency().count, before);

    // As-of preparation: one histogram sample per pages_prepared increment.
    db.clock().advance_secs(5);
    db.checkpoint().unwrap();
    let t0 = db.clock().now();
    db.clock().advance_secs(5);
    db.with_txn(|txn| {
        for i in (0..60u64).step_by(3) {
            db.update(txn, "t", &[Value::U64(i), Value::str("post-split")])?;
        }
        Ok(())
    })
    .unwrap();
    let snap = db.create_snapshot_asof("trace", t0).unwrap();
    snap.wait_undo_complete().unwrap();
    let prepare0 = obs.asof_prepare().count;
    let prepared0 = snap.stats().pages_prepared;
    let table = snap.table("t").unwrap();
    let rows = snap.scan_all(&table).unwrap();
    assert_eq!(rows.len(), 60);
    assert_eq!(
        obs.asof_prepare().count - prepare0,
        snap.stats().pages_prepared - prepared0,
        "one as-of prepare sample per prepared page"
    );
    db.drop_snapshot("trace").unwrap();

    // The trace is small: nothing may have been dropped, and the ring's
    // commit events pair begin/durable.
    assert_eq!(obs.events_dropped(), 0);
    let events = obs.events();
    let begins = events
        .iter()
        .filter(|e| e.kind == EventKind::CommitBegin)
        .count();
    let durables = events
        .iter()
        .filter(|e| e.kind == EventKind::CommitDurable)
        .count();
    assert_eq!(begins, durables, "every durable commit has a begin event");
    assert_eq!(
        durable() - durable0,
        obs.commit_latency().count - commit0,
        "one commit_durable event per durable commit"
    );

    // The registry composes everything and the exposition round-trips.
    let metrics = db.metrics();
    let parsed = MetricsSnapshot::parse_text(&metrics.to_text()).expect("exposition parses");
    assert_eq!(parsed["obs_enabled"], 1);
    assert_eq!(
        parsed["commit_latency_us_count"],
        metrics.hist("commit_latency_us").unwrap().count
    );
    assert_eq!(
        parsed["io_log_log_flushes"],
        metrics.get("io_log_log_flushes")
    );
    assert!(metrics.get("log_total_bytes") > 0);
}

#[test]
fn disabled_obs_is_inert_and_accounting_identical() {
    let on = build(true);
    let off = build(false);
    let commits_on = workload(&on);
    let commits_off = workload(&off);
    assert_eq!(commits_on, commits_off);

    // Bit-exact accounting: the identical serial trace produces identical
    // I/O and pool counters whether obs records or not.
    assert_eq!(
        on.log_io().fields(),
        off.log_io().fields(),
        "log I/O accounting diverges with obs on vs off"
    );
    assert_eq!(
        on.data_io().fields(),
        off.data_io().fields(),
        "data I/O accounting diverges with obs on vs off"
    );
    let (pon, poff) = (on.pool_stats(), off.pool_stats());
    assert_eq!(
        (pon.hits, pon.misses, pon.evictions),
        (poff.hits, poff.misses, poff.evictions)
    );

    // The disabled engine recorded nothing and says so.
    assert!(!off.obs().is_enabled());
    assert_eq!(off.obs().events_recorded(), 0);
    assert_eq!(off.obs().commit_latency().count, 0);
    let m = off.metrics();
    assert_eq!(m.get("obs_enabled"), 0);
    assert_eq!(m.hist("commit_latency_us").unwrap().count, 0);
    // Exposition still parses — monitoring never has to special-case a
    // disabled engine.
    MetricsSnapshot::parse_text(&m.to_text()).expect("disabled exposition parses");
}

#[test]
fn recovery_reports_phase_timings_and_events() {
    let db = build(true);
    workload(&db);
    // Leave one transaction in flight with real writes: recovery must undo
    // it, so the undo phase has nonzero record counts.
    let loser = db.begin();
    for i in 100..110u64 {
        db.insert(&loser, "t", &[Value::U64(i), Value::str("loser")])
            .unwrap();
    }
    db.log().flush_to(db.log().tail_lsn());
    std::mem::forget(loser);

    let artifacts = db.simulate_crash();
    let db2 = Database::recover(artifacts).unwrap();

    let report = db2.last_recovery().expect("recover() leaves a report");
    assert!(report.records_scanned > 0, "analysis scanned the log");
    assert_eq!(report.losers, 1, "the in-flight transaction is a loser");
    assert!(
        report.records_undone >= 10,
        "undo compensated the loser's writes (got {})",
        report.records_undone
    );
    assert!(report.analysis_us > 0, "analysis duration is real");
    assert!(report.redo_us > 0, "redo duration is real");
    assert!(report.redo_workers >= 1, "restart used at least one worker");
    assert_eq!(
        report.redone_per_worker.iter().sum::<u64>(),
        report.records_redone,
        "per-worker redo counts sum to the total"
    );
    assert_eq!(report.loser_txns.len() as u64, report.losers);
    // A fresh instance (no recovery) reports None.
    assert!(build(true).last_recovery().is_none());

    // The ring carries the three phase events, each exactly once.
    let events = db2.obs().events();
    for kind in [
        EventKind::RecoveryAnalysis,
        EventKind::RecoveryRedo,
        EventKind::RecoveryUndo,
    ] {
        assert_eq!(
            events.iter().filter(|e| e.kind == kind).count(),
            1,
            "expected exactly one {kind:?} event"
        );
    }
    let undo = events
        .iter()
        .find(|e| e.kind == EventKind::RecoveryUndo)
        .unwrap();
    assert_eq!(undo.arg, report.records_undone);

    // The recovered database keeps working and keeps counting.
    let c0 = db2.obs().commit_latency().count;
    db2.with_txn(|txn| db2.insert(txn, "t", &[Value::U64(999), Value::str("post")]))
        .unwrap();
    assert_eq!(db2.obs().commit_latency().count, c0 + 1);
}

/// Regression: phase durations used to come from `Obs::now_us`, which is
/// pinned to 0 on a disabled-obs engine — `last_recovery()` then displayed
/// "0.000ms" for every phase. Durations now come from the monotonic
/// timebase and must be real regardless of obs state.
#[test]
fn recovery_timings_are_real_with_obs_disabled() {
    let db = build(false);
    workload(&db);
    let loser = db.begin();
    for i in 100..110u64 {
        db.insert(&loser, "t", &[Value::U64(i), Value::str("loser")])
            .unwrap();
    }
    db.log().flush_to(db.log().tail_lsn());
    std::mem::forget(loser);

    let db2 = Database::recover(db.simulate_crash()).unwrap();
    assert!(!db2.obs().is_enabled());
    let report = db2.last_recovery().expect("recover() leaves a report");
    assert!(report.records_scanned > 0);
    assert!(report.analysis_us > 0, "real analysis duration without obs");
    assert!(report.redo_us > 0, "real redo duration without obs");
    // The Display form monitoring logs must not claim instant phases.
    assert!(!format!("{report}").contains("analysis 0.000ms"));
}
