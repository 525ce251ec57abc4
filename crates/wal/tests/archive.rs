//! Log-archive behaviour: the archive is the oldest part of the one
//! segment vector, so scans, `get_record_deep` and the split search reach
//! it while `get_record_ref` stays retention-bound; and crash-tail discard
//! interplay. That as-of creation refuses an archived time is checked at
//! the `Database` level (`tests/restore_vs_asof.rs`).

use rewind_common::{Error, Lsn, ObjectId, PageId, Timestamp, TxnId};
use rewind_wal::{
    find_split_lsn, LogConfig, LogManager, LogPayload, LogPayloadView, LogRecord, Payload,
};

fn rec<B, I>(txn: u64, payload: Payload<B, I>) -> LogRecord<B, I> {
    LogRecord {
        lsn: Lsn::NULL,
        txn: TxnId(txn),
        prev_lsn: Lsn::NULL,
        page: PageId(1),
        prev_page_lsn: Lsn::NULL,
        object: ObjectId(1),
        undo_next: Lsn::NULL,
        flags: 0,
        payload,
    }
}

fn build(archive: bool) -> (LogManager, Vec<Lsn>) {
    let log = LogManager::new(LogConfig {
        archive_on_truncate: archive,
        ..LogConfig::default()
    });
    let mut commits = Vec::new();
    for i in 1..=800u64 {
        log.append(&rec(
            i,
            LogPayload::InsertRecord {
                slot: 0,
                bytes: vec![7u8; 2000],
            },
        ));
        commits.push(log.append(&rec(
            i,
            LogPayload::Commit {
                at: Timestamp::from_secs(i),
            },
        )));
    }
    log.flush_to(log.tail_lsn());
    (log, commits)
}

#[test]
fn truncation_without_archive_discards_history() {
    let (log, commits) = build(false);
    log.truncate_before(commits[500]);
    assert!(log.truncation_point() > Lsn::FIRST);
    assert_eq!(log.earliest_available_lsn(), log.truncation_point());
    assert!(matches!(
        log.get_record_ref(commits[10])
            .and_then(|r| r.view().map(|(h, _)| h)),
        Err(Error::LogTruncated(_))
    ));
    // deep reads cannot help: the bytes are gone
    assert!(matches!(
        log.get_record_deep(commits[10]),
        Err(Error::LogTruncated(_))
    ));
}

#[test]
fn archive_keeps_history_readable_deeply_but_not_shallowly() {
    let (log, commits) = build(true);
    log.truncate_before(commits[500]);
    let trunc = log.truncation_point();
    assert!(trunc > Lsn::FIRST);
    assert_eq!(log.earliest_available_lsn(), Lsn::FIRST);

    // shallow (retention-bound) read still refuses
    assert!(matches!(
        log.get_record_ref(commits[10])
            .and_then(|r| r.view().map(|(h, _)| h)),
        Err(Error::LogTruncated(_))
    ));
    // deep read succeeds
    let r = log.get_record_deep(commits[10]).unwrap();
    assert_eq!(r.view().unwrap().0.lsn, commits[10]);

    // a scan from the oldest record crosses the archive/live boundary
    let mut seen = 0u64;
    log.scan_refs(Lsn::FIRST, Lsn::MAX, |r| {
        r.view()?;
        seen += 1;
        Ok(true)
    })
    .unwrap();
    assert_eq!(seen, 1600, "all records visible from the archive on");

    // a scan from the truncation point sees only the retained suffix
    let mut shallow = 0u64;
    log.scan_refs(trunc, Lsn::MAX, |r| {
        r.view()?;
        shallow += 1;
        Ok(true)
    })
    .unwrap();
    assert!(shallow < seen);
}

#[test]
fn split_search_reaches_the_archive() {
    let (archived, commits) = build(true);
    let (dropped, _) = build(false);
    for log in [&archived, &dropped] {
        log.truncate_before(commits[500]);
    }
    // the archived commit is found, below the truncation point
    let split = find_split_lsn(&archived, Timestamp::from_secs(10)).unwrap();
    assert_eq!(split, commits[9]);
    assert!(split < archived.truncation_point());
    // without the archive the time is gone
    match find_split_lsn(&dropped, Timestamp::from_secs(10)) {
        Err(Error::RetentionExceeded { .. }) => {}
        other => panic!("expected RetentionExceeded, got {other:?}"),
    }
    // recent times are unchanged
    let t = Timestamp::from_secs(700);
    assert_eq!(find_split_lsn(&archived, t).unwrap(), commits[699]);
    assert_eq!(find_split_lsn(&dropped, t).unwrap(), commits[699]);
}

#[test]
fn discard_unflushed_drops_only_the_volatile_tail() {
    let log = LogManager::new(LogConfig::default());
    let a = log.append(&rec(
        1,
        LogPayload::InsertRecord {
            slot: 0,
            bytes: vec![1; 100],
        },
    ));
    log.flush_to(a);
    let flushed_tail = log.tail_lsn();
    let b = log.append(&rec(
        1,
        LogPayload::InsertRecord {
            slot: 0,
            bytes: vec![2; 100],
        },
    ));
    assert!(log
        .get_record_ref(b)
        .and_then(|r| r.view().map(|(h, _)| h))
        .is_ok());
    log.discard_unflushed();
    assert_eq!(
        log.tail_lsn(),
        flushed_tail,
        "tail rewinds to the flushed point"
    );
    assert!(log
        .get_record_ref(a)
        .and_then(|r| r.view().map(|(h, _)| h))
        .is_ok());
    assert!(log
        .get_record_ref(b)
        .and_then(|r| r.view().map(|(h, _)| h))
        .is_err());
    // appends continue cleanly after the discard
    let c = log.append(&rec(2, LogPayload::Abort));
    assert_eq!(c, flushed_tail);
    let r = log.get_record_ref(c).unwrap();
    assert_eq!(r.view().unwrap().1, LogPayloadView::Abort);
}
