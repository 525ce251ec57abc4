//! Crash-recovery torture: randomized committed work (tracked in a model)
//! interleaved with in-flight transactions that vanish at the crash; after
//! every crash+restart the database must match the model exactly, and keep
//! working.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rewind::common::{Lsn, TxnId};
use rewind::wal::CheckpointInfo;
use rewind::{Column, DataType, Database, DbConfig, Row, Schema, SimClock, Timestamp, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

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

#[test]
fn crash_recover_repeatedly_matches_model() {
    let mut rng = SmallRng::seed_from_u64(0xDEAD);
    let mut db = Database::create(DbConfig {
        buffer_pages: 256,
        checkpoint_interval_bytes: 256 << 10,
        ..DbConfig::default()
    })
    .unwrap();
    db.with_txn(|txn| {
        db.create_table(txn, "t", schema())?;
        Ok(())
    })
    .unwrap();
    let mut model: BTreeMap<u64, Row> = BTreeMap::new();

    for round in 0..6 {
        // committed work
        for _ in 0..rng.gen_range(5..25) {
            let ops = rng.gen_range(1..10);
            db.with_txn(|txn| {
                for _ in 0..ops {
                    let id = rng.gen_range(0..300u64);
                    let row = vec![
                        Value::U64(id),
                        Value::Str(format!("{round}:{}", rng.gen::<u32>())),
                    ];
                    match model.entry(id) {
                        std::collections::btree_map::Entry::Occupied(mut e) => {
                            if rng.gen_bool(0.3) {
                                db.delete(txn, "t", &[Value::U64(id)])?;
                                model.remove(&id);
                            } else {
                                db.update(txn, "t", &row)?;
                                e.insert(row);
                            }
                        }
                        std::collections::btree_map::Entry::Vacant(e) => {
                            db.insert(txn, "t", &row)?;
                            e.insert(row);
                        }
                    }
                }
                Ok(())
            })
            .unwrap();
            db.clock().advance_micros(rng.gen_range(1000..100_000));
        }
        // in-flight garbage lost at the crash (sometimes big enough to split)
        let loser = db.begin();
        for i in 0..rng.gen_range(1..200u64) {
            let _ = db.insert(&loser, "t", &[Value::U64(1000 + i), Value::str("doomed")]);
        }
        std::mem::forget(loser);

        // sometimes a checkpoint lands right before the crash
        if rng.gen_bool(0.5) {
            db.checkpoint().unwrap();
        }

        let artifacts = db.simulate_crash();
        db = Database::recover(artifacts).unwrap();

        let rows = db.with_txn(|txn| db.scan_all(txn, "t")).unwrap();
        let got: BTreeMap<u64, Row> = rows
            .into_iter()
            .map(|r| (r[0].as_u64().unwrap(), r))
            .collect();
        assert_eq!(got, model, "state after crash {round}");
        db.check_consistency().unwrap();
    }
}

/// Partitioned redo must be a pure performance feature: running the SAME
/// deterministic workload to the same crash point and driving restart's one
/// pass — `pipelined_restart`, which no knob reaches any more — at 1, 2, 4
/// and 16 workers must yield byte-identical backing files and identical
/// accounting (records scanned, records applied, loser set). Only the
/// per-worker split may differ — and the device sees the same traffic:
/// restart reads each page it needs once, scalar, at every worker count
/// (there is no redo read-ahead). One full `Database::recover` then shows
/// the engine picks the machine's parallelism and lands on the same rows.
#[test]
fn restart_is_bit_identical_across_worker_counts() {
    use rewind::buffer::BufferPool;
    use rewind::pagestore::PAGE_SIZE;
    use rewind::recovery::pipelined_restart;
    use rewind::CrashArtifacts;
    use rewind::PageId;

    let crash = || -> CrashArtifacts {
        let db = Database::create(DbConfig {
            buffer_pages: 128,
            // No checkpoint daemon: its kicks land at nondeterministic log
            // positions and would break cross-run byte comparison. The
            // manual checkpoint below still exercises the DPT-seeded
            // prefix-redo path.
            checkpoint_interval_bytes: 0,
            ..DbConfig::default()
        })
        .unwrap();
        db.with_txn(|txn| {
            db.create_table(txn, "t", schema())?;
            for i in 0..400u64 {
                db.insert(txn, "t", &[Value::U64(i), Value::str("v0")])?;
            }
            Ok(())
        })
        .unwrap();
        db.checkpoint().unwrap();
        db.with_txn(|txn| {
            for i in 0..400u64 {
                if i % 3 == 0 {
                    db.update(txn, "t", &[Value::U64(i), Value::Str(format!("v1-{i}"))])?;
                } else if i % 7 == 0 {
                    db.delete(txn, "t", &[Value::U64(i)])?;
                }
            }
            Ok(())
        })
        .unwrap();
        // Two in-flight losers of different sizes: undo must run, and the
        // loser set is part of the cross-worker-count contract.
        let l1 = db.begin();
        for i in 1000..1050u64 {
            db.insert(&l1, "t", &[Value::U64(i), Value::str("doomed")])
                .unwrap();
        }
        let l2 = db.begin();
        for i in 2000..2010u64 {
            db.insert(&l2, "t", &[Value::U64(i), Value::str("doomed")])
                .unwrap();
        }
        db.log().flush_to(db.log().tail_lsn());
        std::mem::forget(l1);
        std::mem::forget(l2);
        db.simulate_crash()
    };

    struct Outcome {
        image: Vec<[u8; PAGE_SIZE]>,
        scanned: u64,
        applied: u64,
        losers: Vec<TxnId>,
        page_reads: u64,
    }

    // The pass alone, on a pool of the engine's shape, then every page out.
    let run = |workers: usize| -> Outcome {
        let artifacts = crash();
        let io0 = artifacts.fm.io_stats().snapshot();
        let pool = BufferPool::with_io(artifacts.fm.clone(), artifacts.log.clone(), 128, 16);
        let out =
            pipelined_restart(&artifacts.log, &pool, artifacts.checkpoint_bound, workers).unwrap();
        pool.flush_all().unwrap();
        let io = artifacts.fm.io_stats().snapshot().delta(io0);
        assert_eq!(
            io.vectored_read_ops, 0,
            "restart issues no vectored reads at {workers} workers"
        );
        assert_eq!(out.redo.per_worker.len(), workers, "one tally per worker");
        assert_eq!(out.redo.per_worker.iter().sum::<u64>(), out.redo.applied);
        Outcome {
            image: (0..artifacts.fm.page_count())
                .map(|pid| *artifacts.fm.read_page(PageId(pid)).unwrap().image())
                .collect(),
            scanned: out.analysis.records_scanned,
            applied: out.redo.applied,
            losers: out.analysis.losers.iter().map(|l| l.id).collect(),
            page_reads: io.page_reads,
        }
    };

    let base = run(1);
    assert!(base.applied > 0, "the workload left redo work");
    assert_eq!(base.losers.len(), 2, "both in-flight txns are losers");
    for workers in [2usize, 4, 16] {
        let o = run(workers);
        assert_eq!(
            o.image, base.image,
            "backing file diverged at {workers} workers"
        );
        assert_eq!((o.scanned, o.applied), (base.scanned, base.applied));
        assert_eq!(o.losers, base.losers);
        assert_eq!(
            o.page_reads, base.page_reads,
            "restart page reads diverged at {workers} workers"
        );
    }

    // The whole restart, as the engine runs it.
    let artifacts = crash();
    let io0 = artifacts.fm.io_stats().snapshot();
    let db = Database::recover(artifacts).unwrap();
    let io = db.data_io().delta(io0);
    assert_eq!(io.vectored_read_ops, 0, "recover issues no vectored reads");
    let report = db.last_recovery().expect("recover() leaves a report");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(report.redo_workers, cores as u64, "one worker per core");
    assert_eq!(report.redone_per_worker.len(), cores);
    assert_eq!(
        (report.records_scanned, report.records_redone),
        (base.scanned, base.applied)
    );
    assert_eq!(report.loser_txns, base.losers);
    assert_eq!(report.records_undone, 60, "every doomed insert compensated");
    let rows: BTreeMap<u64, Row> = db
        .with_txn(|txn| db.scan_all(txn, "t"))
        .unwrap()
        .into_iter()
        .map(|r| (r[0].as_u64().unwrap(), r))
        .collect();
    let expect: BTreeMap<u64, Row> = (0..400u64)
        .filter(|i| i % 3 == 0 || i % 7 != 0)
        .map(|i| {
            let v = match i % 3 {
                0 => format!("v1-{i}"),
                _ => "v0".to_string(),
            };
            (i, vec![Value::U64(i), Value::Str(v)])
        })
        .collect();
    assert_eq!(rows, expect, "committed work survives, losers are gone");
}

#[test]
fn crash_during_ddl_rolls_it_back() {
    let db = Database::create(DbConfig::default()).unwrap();
    db.with_txn(|txn| {
        db.create_table(txn, "keep", schema())?;
        db.insert(txn, "keep", &[Value::U64(1), Value::str("v")])?;
        Ok(())
    })
    .unwrap();
    db.checkpoint().unwrap();

    // DDL in flight at the crash: a created table and a dropped table
    let t1 = db.begin();
    db.create_table(&t1, "doomed", schema()).unwrap();
    db.insert(&t1, "doomed", &[Value::U64(1), Value::str("x")])
        .unwrap();
    std::mem::forget(t1);

    let artifacts = db.simulate_crash();
    let db = Database::recover(artifacts).unwrap();
    assert!(
        db.table("doomed").is_err(),
        "uncommitted CREATE TABLE must vanish"
    );
    assert_eq!(db.count_approx("keep").unwrap(), 1);

    // drop in flight
    let t2 = db.begin();
    db.drop_table(&t2, "keep").unwrap();
    std::mem::forget(t2);
    let artifacts = db.simulate_crash();
    let db = Database::recover(artifacts).unwrap();
    assert_eq!(
        db.count_approx("keep").unwrap(),
        1,
        "uncommitted DROP TABLE must be undone"
    );
    db.with_txn(|txn| {
        assert_eq!(
            db.get(txn, "keep", &[Value::U64(1)])?.unwrap(),
            vec![Value::U64(1), Value::str("v")]
        );
        Ok(())
    })
    .unwrap();
}

/// As-of queries racing `drop_cache`: a crash simulation in the middle of a
/// snapshot scan must either complete from already-prepared frames or fail
/// cleanly — it must never return mixed-epoch rows (some pre-update, some
/// post-update). Afterwards a real crash + ARIES restart must still
/// reproduce the committed post-update state.
#[test]
fn asof_scans_racing_drop_cache_never_see_mixed_epochs() {
    const ROWS: u64 = 200;
    let db = Database::create(DbConfig {
        buffer_pages: 48, // tight pool: scans evict constantly
        checkpoint_interval_bytes: 0,
        ..DbConfig::default()
    })
    .unwrap();
    db.with_txn(|txn| {
        db.create_table(txn, "t", schema())?;
        for i in 0..ROWS {
            db.insert(txn, "t", &[Value::U64(i), Value::str("epoch0")])?;
        }
        Ok(())
    })
    .unwrap();
    db.clock().advance_secs(10);
    db.checkpoint().unwrap();
    let t0 = db.clock().now();
    db.clock().advance_secs(10);
    db.with_txn(|txn| {
        for i in 0..ROWS {
            db.update(txn, "t", &[Value::U64(i), Value::str("epoch1")])?;
        }
        Ok(())
    })
    .unwrap();

    let snap = db.create_snapshot_asof("mid_crash", t0).unwrap();
    snap.wait_undo_complete().unwrap();
    let table = snap.table("t").unwrap();
    let expect: Vec<Row> = (0..ROWS)
        .map(|i| vec![Value::U64(i), Value::str("epoch0")])
        .collect();

    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        for _ in 0..3 {
            let snap = snap.clone();
            let table = table.clone();
            let expect = expect.clone();
            let stop = stop.clone();
            s.spawn(move || {
                let mut scans = 0u32;
                while !stop.load(Ordering::Relaxed) || scans == 0 {
                    // A scan caught mid-crash may also "fail cleanly" (e.g.
                    // the tight pool transiently exhausted) — that outcome
                    // is allowed; the loop condition still demands at least
                    // one *successful* split-consistent scan per thread
                    // before exiting.
                    if let Ok(mut rows) = snap.scan_all(&table) {
                        rows.sort_by_key(|r| r[0].as_u64().unwrap());
                        assert_eq!(rows, expect, "mid-crash scan saw mixed epochs");
                        scans += 1;
                    }
                }
            });
        }
        // The crash simulator: volatile pool state vanishes repeatedly while
        // the scans above are mid-flight.
        let pool = db.parts().pool.clone();
        for _ in 0..30 {
            pool.drop_cache();
            std::thread::sleep(std::time::Duration::from_millis(3));
        }
        stop.store(true, Ordering::Relaxed);
    });
    assert_eq!(db.parts().pool.pinned_frames(), 0, "lost pins");
    db.drop_snapshot("mid_crash").unwrap();

    // A real crash (+ discarded unflushed tail) then ARIES restart: the
    // committed second epoch must be fully present.
    let artifacts = db.simulate_crash();
    let db = Database::recover(artifacts).unwrap();
    let rows = db.with_txn(|txn| db.scan_all(txn, "t")).unwrap();
    assert_eq!(rows.len(), ROWS as usize);
    for r in &rows {
        assert_eq!(r[1], Value::str("epoch1"), "recovery lost a committed row");
    }
    db.check_consistency().unwrap();
}

#[test]
fn snapshot_works_on_recovered_database() {
    let db = Database::create(DbConfig::default()).unwrap();
    db.with_txn(|txn| {
        db.create_table(txn, "t", schema())?;
        for i in 0..50u64 {
            db.insert(txn, "t", &[Value::U64(i), Value::str("before")])?;
        }
        Ok(())
    })
    .unwrap();
    db.clock().advance_secs(10);
    db.checkpoint().unwrap();
    let t = db.clock().now();
    db.clock().advance_secs(10);
    db.with_txn(|txn| {
        for i in 0..50u64 {
            db.update(txn, "t", &[Value::U64(i), Value::str("after")])?;
        }
        Ok(())
    })
    .unwrap();

    let artifacts = db.simulate_crash();
    let db = Database::recover(artifacts).unwrap();

    // time travel across the crash boundary
    let snap = db.create_snapshot_asof("pre_crash_time", t).unwrap();
    let info = snap.table("t").unwrap();
    let row = snap.get(&info, &[Value::U64(7)]).unwrap().unwrap();
    assert_eq!(row[1], Value::str("before"));
    snap.wait_undo_complete().unwrap();
    db.drop_snapshot("pre_crash_time").unwrap();
}

/// CRC framing round-trips across crashes, and a log segment shortened to
/// a non-frame boundary — the classic torn tail a real crash leaves on
/// media — is detected and cleanly truncated to the last valid frame.
#[test]
fn shortened_segment_truncates_to_last_valid_frame() {
    let mut rng = SmallRng::seed_from_u64(0xF4A3);
    let mut db = Database::create(DbConfig {
        // No checkpoints: restart rebuilds purely from the log, so the
        // truncation point fully determines the surviving rows.
        checkpoint_interval_bytes: 0,
        ..DbConfig::default()
    })
    .unwrap();
    db.with_txn(|txn| {
        db.create_table(txn, "t", schema())?;
        Ok(())
    })
    .unwrap();
    let mut model: BTreeMap<u64, Row> = BTreeMap::new();
    let mut boundaries = Vec::new();
    for round in 0..4 {
        for _ in 0..10 {
            db.with_txn(|txn| {
                for _ in 0..rng.gen_range(1..6) {
                    let id = rng.gen_range(0..150u64);
                    let row = vec![
                        Value::U64(id),
                        Value::Str(format!("{round}:{}", rng.gen::<u32>())),
                    ];
                    if model.contains_key(&id) {
                        db.update(txn, "t", &row)?;
                    } else {
                        db.insert(txn, "t", &row)?;
                    }
                    model.insert(id, row);
                }
                Ok(())
            })
            .unwrap();
        }
        db.log().flush_to(db.log().tail_lsn());
        boundaries.push((db.log().tail_lsn(), model.clone()));
    }

    // Every committed frame's CRC round-trips: a full verifying scan of
    // the durable log sees every record and no corruption.
    let mut frames = 0u64;
    db.log()
        .scan_views(Lsn::FIRST, Lsn::MAX, |_, _| {
            frames += 1;
            Ok(true)
        })
        .unwrap();
    assert!(frames > 40, "the workload logged plenty of frames");
    assert_eq!(db.log_io().corruptions_detected, 0);

    // "Shorten" the segment mid-frame: blow up the length prefix of the
    // first frame after batch 1, so the frame claims to run past the end
    // of the segment — byte-identical to a tail that lost its final
    // sectors at a non-frame boundary.
    let (cut, expect) = boundaries[1].clone();
    assert!(db.log().corrupt_byte_at(cut.0 + 2, 0x7F));

    db = Database::recover(db.simulate_crash()).unwrap();
    assert_eq!(
        db.log_io().corruptions_detected,
        1,
        "the overrunning frame is detected exactly once"
    );
    let got: BTreeMap<u64, Row> = db
        .with_txn(|txn| db.scan_all(txn, "t"))
        .unwrap()
        .into_iter()
        .map(|r| (r[0].as_u64().unwrap(), r))
        .collect();
    assert_eq!(got, expect, "exactly the rows before the shortened frame");
    db.check_consistency().unwrap();

    // The truncated log is a clean foundation: new commits append and
    // survive a further, fault-free crash.
    db.with_txn(|txn| db.insert(txn, "t", &[Value::U64(9_000), Value::str("post")]))
        .unwrap();
    db = Database::recover(db.simulate_crash()).unwrap();
    assert!(db
        .with_txn(|txn| db.get(txn, "t", &[Value::U64(9_000)]))
        .unwrap()
        .is_some());
    db.check_consistency().unwrap();
}

/// The crash point is a *point*: no flush thread outlives its call, and
/// `simulate_crash` joins the checkpoint daemon before it returns, so no
/// page write can land on the surviving file afterwards — the artifacts a
/// restart recovers from are frozen the moment the call returns.
#[test]
fn no_background_write_lands_after_simulate_crash() {
    use rewind::pagestore::{FileManager, MemFileManager};

    let fm = Arc::new(MemFileManager::new());
    let db = Database::create_on(
        fm.clone(),
        DbConfig {
            buffer_pages: 128,
            // Aggressive daemon checkpoints: the daemon is busy flushing
            // page chunks while commits are still arriving, so the crash
            // lands with writes genuinely in flight.
            checkpoint_interval_bytes: 32 << 10,
            ..DbConfig::default()
        },
        SimClock::starting_at(Timestamp::from_secs(1)),
    )
    .unwrap();
    db.with_txn(|txn| db.create_table(txn, "t", schema()))
        .unwrap();
    let mut model = BTreeMap::new();
    for i in 0..1_500u64 {
        let row = vec![Value::U64(i), Value::Str(format!("v-{i}"))];
        db.with_txn(|txn| db.insert(txn, "t", &row)).unwrap();
        model.insert(i, row);
    }

    let arts = db.simulate_crash();
    let frozen = fm.io_stats().snapshot();
    // A straggler flush writer would land its chunk within this window;
    // none outlives the flush that started it.
    std::thread::sleep(std::time::Duration::from_millis(50));
    let after = fm.io_stats().snapshot();
    assert_eq!(
        after.page_writes, frozen.page_writes,
        "page write landed after simulate_crash returned"
    );
    assert_eq!(
        after.batched_write_ops, frozen.batched_write_ops,
        "batched write landed after simulate_crash returned"
    );

    let db = Database::recover(arts).unwrap();
    let got: BTreeMap<u64, Row> = db
        .with_txn(|txn| db.scan_all(txn, "t"))
        .unwrap()
        .into_iter()
        .map(|r| (r[0].as_u64().unwrap(), r))
        .collect();
    assert_eq!(got, model);
    db.check_consistency().unwrap();
}

/// Two committers on disjoint key ranges race the background checkpoint
/// daemon (a checkpoint every 32 KiB of log), then the process crashes
/// after a seeded number of commits. Every daemon checkpoint captures its
/// transaction table while commits are landing, so a table that listed a
/// transaction whose commit was already in the log would make restart undo
/// an acknowledged commit. After each restart:
/// - every acknowledged commit's rows are present;
/// - every transaction is all-or-nothing — a commit whose acknowledgement
///   the crash swallowed may land either way, a transaction that never
///   committed must not land at all;
/// - the database is consistent.
#[test]
fn daemon_checkpoints_racing_two_committers_lose_no_commit() {
    const COMMITTERS: u64 = 2;
    /// Key range of one committer: disjoint from the other's.
    const RANGE: u64 = 1 << 32;

    /// How a committer's transaction ended before the crash.
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Fate {
        Acknowledged,
        CommitUnacknowledged,
        NeverCommitted,
    }

    for seed in [
        0x0DA3_0001_u64,
        0x0DA3_0002,
        0x0DA3_0003,
        0x0DA3_0004,
        0x0DA3_0005,
    ] {
        let db = Database::create(DbConfig {
            buffer_pages: 256,
            checkpoint_interval_bytes: 32 << 10,
            ..DbConfig::default()
        })
        .unwrap();
        db.with_txn(|txn| db.create_table(txn, "t", schema()).map(|_| ()))
            .unwrap();
        let crash_after = SmallRng::seed_from_u64(seed).gen_range(150..400u64);
        let commits = std::sync::atomic::AtomicU64::new(0);
        // Per committer: (tag, first key, rows, fate) of every transaction.
        let txns: Vec<Vec<(String, u64, u64, Fate)>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..COMMITTERS)
                .map(|c| {
                    let (db, commits) = (&db, &commits);
                    s.spawn(move || {
                        let mut rng = SmallRng::seed_from_u64(seed ^ (c + 1));
                        let mut done = Vec::new();
                        let mut next_key = c * RANGE;
                        loop {
                            let last = commits.load(Ordering::Acquire) >= crash_after;
                            let tag = format!("{c}:{}", done.len());
                            let rows = rng.gen_range(1..6u64);
                            let txn = db.begin();
                            for k in next_key..next_key + rows {
                                let pad = "x".repeat(rng.gen_range(20..120));
                                let row = [Value::U64(k), Value::Str(format!("{tag}:{pad}"))];
                                db.insert(&txn, "t", &row).unwrap();
                            }
                            let fate = if !last {
                                db.commit(txn).unwrap();
                                commits.fetch_add(1, Ordering::AcqRel);
                                Fate::Acknowledged
                            } else if rng.gen_bool(0.5) {
                                // The crash swallows the acknowledgement.
                                db.commit(txn).unwrap();
                                Fate::CommitUnacknowledged
                            } else {
                                std::mem::forget(txn);
                                Fate::NeverCommitted
                            };
                            done.push((tag, next_key, rows, fate));
                            next_key += rows;
                            if last {
                                return done;
                            }
                        }
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        db.quiesce_checkpoints();
        assert!(
            db.take_background_errors().is_empty(),
            "seed {seed:#x}: a daemon checkpoint failed"
        );
        // The bootstrap checkpoint, then at least one the daemon took: the
        // log grew past the interval, so some commit kicked it, and
        // `quiesce_checkpoints` waited for that kick.
        let checkpoints = db.log().checkpoints().len();
        assert!(
            checkpoints >= 2,
            "seed {seed:#x}: {checkpoints} checkpoints"
        );
        let db = Database::recover(db.simulate_crash()).unwrap();

        let rows = db.with_txn(|txn| db.scan_all(txn, "t")).unwrap();
        let mut landed: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        for r in &rows {
            let v = r[1].as_str().unwrap();
            let tag = v[..v.rfind(':').unwrap()].to_string();
            landed.entry(tag).or_default().push(r[0].as_u64().unwrap());
        }
        for (tag, first, n, fate) in txns.iter().flatten() {
            let keys = landed.remove(tag).unwrap_or_default();
            let all: Vec<u64> = (*first..first + n).collect();
            match fate {
                Fate::Acknowledged => assert_eq!(keys, all, "seed {seed:#x}: txn {tag} lost"),
                Fate::CommitUnacknowledged => assert!(
                    keys.is_empty() || keys == all,
                    "seed {seed:#x}: txn {tag} landed in part: {keys:?}"
                ),
                Fate::NeverCommitted => {
                    assert!(
                        keys.is_empty(),
                        "seed {seed:#x}: uncommitted txn {tag} landed"
                    )
                }
            }
        }
        assert!(
            landed.is_empty(),
            "seed {seed:#x}: rows of no transaction: {landed:?}"
        );
        db.check_consistency().unwrap();
    }
}

/// Retention period of [`four_checkpoints_then_crash`]'s database.
const RETENTION_SECS: u64 = 60;

/// What `checkpoint_before(end_lsn)` and `checkpoint_before_time(at)`
/// answer for each checkpoint of `dir`.
fn directory_answers(db: &Database, dir: &[CheckpointInfo]) -> Vec<Option<CheckpointInfo>> {
    dir.iter()
        .flat_map(|c| {
            [
                db.log().checkpoint_before(c.end_lsn),
                db.log().checkpoint_before_time(c.at),
            ]
        })
        .collect()
}

/// A database on a simulated clock with a retention period, four
/// checkpoints with committed work and clock ticks between them (about
/// 600 KiB of log each, so retention has whole segments to cut), more work
/// after the fourth, then a crash and a restart. Returns the restarted
/// database, the four checkpoints, and the whole directory before the
/// crash with its [`directory_answers`].
fn four_checkpoints_then_crash() -> (
    Database,
    Vec<CheckpointInfo>,
    Vec<CheckpointInfo>,
    Vec<Option<CheckpointInfo>>,
) {
    let db = Database::create_with_clock(
        DbConfig {
            checkpoint_interval_bytes: 0,
            ..DbConfig::default()
        },
        SimClock::starting_at(Timestamp::from_secs(1_000)),
    )
    .unwrap();
    db.with_txn(|txn| db.create_table(txn, "t", schema()))
        .unwrap();
    db.set_undo_interval(Duration::from_secs(RETENTION_SECS))
        .unwrap();
    let work = |round: u64| {
        for batch in 0..10 {
            db.with_txn(|txn| {
                for id in 0..20u64 {
                    let v = format!("{round}:{batch}:{}", "x".repeat(1_500));
                    let row = [Value::U64(id), Value::Str(v)];
                    if round == 0 && batch == 0 {
                        db.insert(txn, "t", &row)?;
                    } else {
                        db.update(txn, "t", &row)?;
                    }
                }
                Ok(())
            })
            .unwrap();
            db.clock().advance_secs(1);
        }
    };
    let mut taken = Vec::new();
    for round in 0..4 {
        work(round);
        db.clock().advance_secs(10);
        db.checkpoint().unwrap();
        taken.push(db.log().checkpoint_before(Lsn::MAX).unwrap());
    }
    work(4);
    let pre_crash = db.log().checkpoints().to_vec();
    let answers = directory_answers(&db, &pre_crash);
    let db = Database::recover(db.simulate_crash()).unwrap();
    (db, taken, pre_crash, answers)
}

/// ROADMAP G1: a crash loses no checkpoint. For every checkpoint taken
/// before the crash, `checkpoint_before(end_lsn)` and
/// `checkpoint_before_time(at)` answer the same after the restart.
#[test]
fn checkpoint_answers_survive_a_crash() {
    let (db, taken, pre_crash, before) = four_checkpoints_then_crash();
    assert!(pre_crash.ends_with(&taken));
    assert_eq!(directory_answers(&db, &pre_crash), before);
}

/// ROADMAP H(b): after a crash, an as-of snapshot between the first and
/// second checkpoints analyses from the first one's begin marker, not from
/// the truncation point.
#[test]
fn snapshot_after_a_crash_analyses_from_the_nearest_checkpoint() {
    let (db, taken, _, _) = four_checkpoints_then_crash();
    let t = taken[0].at.plus_micros(500_000);
    assert!(t < taken[1].at);
    let snap = db.create_snapshot_asof("between", t).unwrap();
    assert_eq!(snap.raw().min_needed_lsn(), taken[0].begin_lsn);
    snap.wait_undo_complete().unwrap();
    db.drop_snapshot("between").unwrap();
}

/// After a crash, retention cuts the log again: once the clock passes the
/// period, `enforce_retention` truncates to the newest checkpoint begun
/// before it — at segment granularity, so to the start of the segment that
/// holds its begin marker.
#[test]
fn retention_cuts_after_a_crash() {
    /// The log's segment size: truncation drops whole segments.
    const SEGMENT_BYTES: u64 = 1 << 20;
    let (db, taken, _, _) = four_checkpoints_then_crash();
    assert_eq!(db.log().truncation_point(), Lsn::FIRST);
    // The period's floor falls between the second and third checkpoints,
    // so the cut needs more of the directory than its two newest entries.
    let floor = taken[1].at.plus_micros(5_000_000);
    assert!(floor < taken[2].at);
    db.clock()
        .advance_to(floor.plus_micros(RETENTION_SECS * 1_000_000));
    db.enforce_retention();
    let (trunc, begin) = (db.log().truncation_point(), taken[1].begin_lsn);
    assert!(
        trunc > Lsn::FIRST && trunc <= begin && begin.0 - trunc.0 < SEGMENT_BYTES,
        "truncated to {trunc}, newest checkpoint older than the period begins at {begin}"
    );
}

/// ROADMAP G7: restart does not hand out a transaction id that the
/// retained log already holds. Committed transactions, then a checkpoint
/// with an empty transaction table, so restart's analysis sees none of
/// their ids; the next id still exceeds every id in the log.
#[test]
fn restart_never_reuses_a_transaction_id() {
    let db = Database::create(DbConfig {
        checkpoint_interval_bytes: 0,
        ..DbConfig::default()
    })
    .unwrap();
    db.with_txn(|txn| db.create_table(txn, "t", schema()))
        .unwrap();
    for i in 0..5u64 {
        db.with_txn(|txn| db.insert(txn, "t", &[Value::U64(i), Value::str("v")]))
            .unwrap();
    }
    db.checkpoint().unwrap();
    let db = Database::recover(db.simulate_crash()).unwrap();
    let mut logged = TxnId::NONE;
    db.log()
        .scan_views(db.log().truncation_point(), Lsn::MAX, |h, _| {
            logged = logged.max(h.txn);
            Ok(true)
        })
        .unwrap();
    let next = db.with_txn(|txn| Ok(txn.id())).unwrap();
    assert!(
        next > logged,
        "restart handed out {next:?}; the log holds up to {logged:?}"
    );
}

/// Commit padded rows into table `pad` (id column first, from `*next`),
/// one per transaction, until `done` holds.
fn pad_until(db: &Database, next: &mut u64, mut done: impl FnMut(&Database) -> bool) {
    let pad = "p".repeat(2_000);
    while !done(db) {
        db.with_txn(|txn| db.insert(txn, "pad", &[Value::U64(*next), Value::str(&pad)]))
            .unwrap();
        *next += 1;
    }
}

/// Retention never truncates a frame restart reads. A daemon checkpoint
/// is incremental, so its dirty-page table can name a page whose recLSN
/// lies far below its begin marker. Once that page is written back, the
/// pool's own dirty-page table forgets it, but restart still redoes from
/// the checkpoint's table: the cut must stop at its lowest recLSN too.
#[test]
fn retention_keeps_what_the_newest_checkpoint_redoes_from() {
    const INTERVAL: u64 = 4 << 20;
    let db = Database::create_with_clock(
        DbConfig {
            checkpoint_interval_bytes: INTERVAL,
            ..DbConfig::default()
        },
        SimClock::starting_at(Timestamp::from_secs(1_000)),
    )
    .unwrap();
    db.with_txn(|txn| {
        db.create_table(txn, "t", schema())?;
        db.create_table(txn, "pad", schema())?;
        db.insert(txn, "t", &[Value::U64(1), Value::str("before")])
    })
    .unwrap();
    db.set_undo_interval(Duration::from_secs(10)).unwrap();
    let mut next = 0;
    pad_until(&db, &mut next, |db| db.log().tail_lsn().0 >= 2 << 20);
    db.with_txn(|txn| db.update(txn, "t", &[Value::U64(1), Value::str("after")]))
        .unwrap();
    let checkpoints = db.log().checkpoints().len();
    pad_until(&db, &mut next, |db| {
        db.log().checkpoints().len() > checkpoints
    });
    db.quiesce_checkpoints();
    assert!(db.take_background_errors().is_empty());
    // Every page goes back to the media, so the pool's dirty-page table is
    // empty; the daemon checkpoint's table still names the pages it left.
    db.parts().pool.flush_all().unwrap();
    db.clock().advance_secs(20);
    db.enforce_retention();
    let db = Database::recover(db.simulate_crash()).unwrap();
    let row = db
        .with_txn(|txn| db.get(txn, "t", &[Value::U64(1)]))
        .unwrap();
    assert_eq!(row.unwrap()[1], Value::str("after"));
    let rows = db.with_txn(|txn| db.scan_all(txn, "pad")).unwrap();
    assert_eq!(rows.len() as u64, next);
}

/// Restart reads only its window: from the newest checkpoint's begin to
/// the durable tail, however much older log the retention period keeps.
/// The checkpoint is a full one, so its dirty-page table starts nothing
/// below its begin; an in-flight transaction makes restart undo as well.
#[test]
fn restart_reads_only_its_window() {
    /// The log's segment size.
    const SEGMENT_BYTES: u64 = 1 << 20;
    let db = Database::create(DbConfig {
        checkpoint_interval_bytes: 0,
        ..DbConfig::default()
    })
    .unwrap();
    db.with_txn(|txn| {
        db.create_table(txn, "t", schema())?;
        db.create_table(txn, "pad", schema())
    })
    .unwrap();
    let mut next = 0;
    pad_until(&db, &mut next, |db| {
        db.log().tail_lsn().0 >= 3 * SEGMENT_BYTES
    });
    db.checkpoint().unwrap();
    let begin = db.log().checkpoint_before(Lsn::MAX).unwrap().begin_lsn;
    for i in 0..50u64 {
        db.with_txn(|txn| db.insert(txn, "t", &[Value::U64(i), Value::str("committed")]))
            .unwrap();
    }
    let loser = db.begin();
    for i in 100..150u64 {
        db.insert(&loser, "t", &[Value::U64(i), Value::str("doomed")])
            .unwrap();
    }
    // A later commit makes the loser's records durable.
    db.with_txn(|txn| db.insert(txn, "t", &[Value::U64(50), Value::str("committed")]))
        .unwrap();
    std::mem::forget(loser);
    let tail = db.log().flushed_lsn();
    let window = tail.0 - begin.0;
    assert!(
        begin.0 >= 3 * SEGMENT_BYTES,
        "the retained log is multi-MiB"
    );
    let before = db.log().io_stats().snapshot();
    let db = Database::recover(db.simulate_crash()).unwrap();
    let scanned = db
        .log()
        .io_stats()
        .snapshot()
        .delta(before)
        .log_bytes_scanned;
    assert!(
        scanned >= window && scanned <= window + SEGMENT_BYTES,
        "restart scanned {scanned} B; its window is {window} B"
    );
    let rows = db.with_txn(|txn| db.scan_all(txn, "t")).unwrap();
    assert_eq!(rows.len(), 51);
}
