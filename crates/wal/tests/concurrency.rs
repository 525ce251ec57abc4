//! Concurrency tests for the log read path: random readers and
//! scanners racing an appender and a truncator, snapshot isolation of
//! in-flight readers across truncation, and `discard_unflushed` racing
//! `append` (crash-point semantics: everything at or below the flushed LSN
//! survives, nothing after it does).

use parking_lot::Mutex;
use rewind_common::{Error, Lsn, ObjectId, PageId, Result, Timestamp, TxnId};
use rewind_pagestore::PAGE_SIZE;
use rewind_wal::{LogConfig, LogManager, LogPayload, LogPayloadView, LogRecord, RecordRef};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

fn payload_rec(txn: u64, marker: u64, n: usize) -> LogRecord<Vec<u8>, Box<[u8; PAGE_SIZE]>> {
    let mut bytes = marker.to_le_bytes().to_vec();
    bytes.resize(n, 0x5A);
    LogRecord {
        lsn: Lsn::NULL,
        txn: TxnId(txn),
        prev_lsn: Lsn::NULL,
        page: PageId(marker),
        prev_page_lsn: Lsn::NULL,
        object: ObjectId(1),
        undo_next: Lsn::NULL,
        flags: 0,
        payload: LogPayload::InsertRecord { slot: 0, bytes },
    }
}

/// Decode `rec` and return the marker [`payload_rec`] put in its bytes.
fn marker_of(rec: &RecordRef) -> Result<u64> {
    match rec.view()?.1 {
        LogPayloadView::InsertRecord { bytes, .. } => {
            Ok(u64::from_le_bytes(bytes[..8].try_into().unwrap()))
        }
        other => panic!("unexpected payload {other:?}"),
    }
}

/// A tiny deterministic xorshift for the reader threads.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// N reader threads doing random `get_record_ref`/`scan_refs` while one writer
/// appends and another thread truncates. Readers must never observe a torn
/// record: every read either decodes to exactly the record that was
/// appended at that LSN (validated by a marker) or fails with
/// `LogTruncated`.
#[test]
fn concurrent_readers_writer_truncator_no_torn_reads() {
    let log = Arc::new(LogManager::new(LogConfig::default()));
    // (lsn, marker) pairs the writer has published.
    let appended: Arc<Mutex<Vec<(Lsn, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let reads_ok = Arc::new(AtomicU64::new(0));
    let reads_truncated = Arc::new(AtomicU64::new(0));

    // Writer: appends ~20 MiB of records, flushing as it goes.
    let writer = {
        let log = log.clone();
        let appended = appended.clone();
        let stop = stop.clone();
        thread::spawn(move || {
            for i in 0..8_000u64 {
                let lsn = log.append(&payload_rec(1, i, 2500));
                if i % 64 == 0 {
                    log.flush_to(lsn);
                }
                appended.lock().push((lsn, i));
            }
            log.flush_to(log.tail_lsn());
            stop.store(true, Ordering::Release);
        })
    };

    // Truncator: advances retention while the writer runs.
    let truncator = {
        let log = log.clone();
        let stop = stop.clone();
        thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                let tail = log.tail_lsn();
                // keep roughly the most recent 4 MiB
                log.truncate_before(Lsn(tail.0.saturating_sub(4 << 20).max(Lsn::FIRST.0)));
                thread::yield_now();
            }
        })
    };

    // Readers: random point reads + bounded scans.
    let readers: Vec<_> = (0..4)
        .map(|seed| {
            let log = log.clone();
            let appended = appended.clone();
            let stop = stop.clone();
            let reads_ok = reads_ok.clone();
            let reads_truncated = reads_truncated.clone();
            thread::spawn(move || {
                let mut rng = XorShift(0x9E3779B97F4A7C15 ^ (seed as u64 + 1));
                while !stop.load(Ordering::Acquire) {
                    let pick = {
                        let list = appended.lock();
                        if list.is_empty() {
                            continue;
                        }
                        list[(rng.next() as usize) % list.len()]
                    };
                    let (lsn, marker) = pick;
                    if rng.next().is_multiple_of(8) {
                        // bounded scan from the pick (validates frame chaining)
                        let mut n = 0;
                        let res = log.scan_refs(lsn, Lsn::MAX, |rec| {
                            assert!(rec.view()?.0.lsn >= lsn, "scan went backwards");
                            n += 1;
                            Ok(n < 16)
                        });
                        match res {
                            Ok(_) => reads_ok.fetch_add(1, Ordering::Relaxed),
                            Err(Error::LogTruncated(_)) => {
                                reads_truncated.fetch_add(1, Ordering::Relaxed)
                            }
                            Err(e) => panic!("scan failed: {e}"),
                        };
                    } else {
                        match log.get_record_ref(lsn).and_then(|r| marker_of(&r)) {
                            Ok(got) => {
                                assert_eq!(got, marker, "torn read at {lsn}");
                                reads_ok.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(Error::LogTruncated(_)) => {
                                reads_truncated.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => panic!("get_record_ref({lsn}) failed: {e}"),
                        }
                    }
                }
            })
        })
        .collect();

    writer.join().unwrap();
    truncator.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }
    assert!(
        reads_ok.load(Ordering::Relaxed) > 0,
        "readers must complete successful reads under contention"
    );
}

/// `truncate_before` never invalidates an in-flight reader holding a
/// segment snapshot: a `RecordRef` taken before truncation still decodes
/// the exact record afterwards, even while new reads fail, and even racing
/// further appends and truncations.
#[test]
fn truncation_does_not_invalidate_inflight_readers() {
    let log = Arc::new(LogManager::new(LogConfig::default()));
    let mut lsns = Vec::new();
    for i in 0..2_000u64 {
        lsns.push(log.append(&payload_rec(1, i, 2500)));
    }
    log.flush_to(log.tail_lsn());

    // Take refs across early history.
    let held: Vec<_> = (0..100)
        .map(|i| {
            let lsn = lsns[i * 10];
            (lsn, i as u64 * 10, log.get_record_ref(lsn).unwrap())
        })
        .collect();

    // Truncate everything below the last quarter while another thread
    // appends more — both publications race the held readers.
    let appender = {
        let log = log.clone();
        thread::spawn(move || {
            for i in 0..2_000u64 {
                log.append(&payload_rec(2, 100_000 + i, 2500));
            }
        })
    };
    log.truncate_before(lsns[1500]);
    appender.join().unwrap();
    assert!(log.truncation_point() > lsns[999]);

    for (lsn, marker, rec_ref) in &held {
        // fresh reads fail…
        assert!(matches!(
            log.get_record_ref(*lsn).and_then(|r| marker_of(&r)),
            Err(Error::LogTruncated(_))
        ));
        // …the held snapshot still reads exactly the old record
        assert_eq!(rec_ref.lsn(), *lsn);
        assert_eq!(marker_of(rec_ref).unwrap(), *marker);
        let header = rec_ref.header().unwrap();
        assert_eq!(header.page, PageId(*marker));
    }
}

/// `discard_unflushed` racing `append`: whatever interleaving occurs, the
/// tail always lands exactly on the flushed LSN after a discard, every
/// record below the final crash point carries the bytes of the *last*
/// append at that LSN (discarded LSNs are reused, exactly like a real
/// volatile tail after a crash), and the surviving stream decodes cleanly.
///
/// Records are constant-size so LSN reuse after a discard realigns exactly
/// — which is what makes "last append at this LSN" well-defined.
#[test]
fn discard_unflushed_racing_append_keeps_flushed_prefix() {
    let log = Arc::new(LogManager::new(LogConfig::default()));
    let stop = Arc::new(AtomicBool::new(false));

    let writer = {
        let log = log.clone();
        let stop = stop.clone();
        thread::spawn(move || {
            // lsn -> marker of the last record appended there (LSNs are
            // reused when a discard cuts the unflushed tail back).
            let mut last_write: std::collections::HashMap<u64, u64> =
                std::collections::HashMap::new();
            for i in 0..6_000u64 {
                let lsn = log.append(&payload_rec(1, i, 600));
                last_write.insert(lsn.0, i);
                if i % 37 == 0 {
                    log.flush_to(lsn);
                }
            }
            // Deliberately do not flush the final stretch: the last discard
            // below must cut it away.
            stop.store(true, Ordering::Release);
            last_write
        })
    };

    let chaos = {
        let log = log.clone();
        let stop = stop.clone();
        thread::spawn(move || {
            let mut n = 0u64;
            while !stop.load(Ordering::Acquire) {
                log.discard_unflushed();
                n += 1;
                if n.is_multiple_of(16) {
                    thread::yield_now();
                }
            }
            n
        })
    };

    let last_write = writer.join().unwrap();
    let discards = chaos.join().unwrap();
    assert!(
        discards > 0,
        "chaos thread must have discarded at least once"
    );

    // Crash-point semantics: after the final discard the tail is exactly
    // the flushed LSN.
    log.discard_unflushed();
    let crash_point = log.flushed_lsn();
    assert_eq!(log.tail_lsn(), crash_point);

    // Everything below the crash point survives with the last-appended
    // bytes; everything at or after it is gone.
    // Flush targets are always record boundaries, so any recorded LSN below
    // the crash point is a whole surviving record.
    let mut survivors = 0u64;
    for (&lsn, &marker) in &last_write {
        if lsn < crash_point.0 {
            let got = log
                .get_record_ref(Lsn(lsn))
                .and_then(|r| marker_of(&r))
                .unwrap_or_else(|e| panic!("flushed record at {lsn} lost: {e}"));
            assert_eq!(got, marker, "wrong record at {lsn}");
            survivors += 1;
        }
    }
    assert!(survivors > 0, "some flushed records must survive");
    assert!(
        log.get_record_ref(crash_point)
            .and_then(|r| marker_of(&r))
            .is_err(),
        "nothing readable at/after the crash point"
    );

    // The surviving stream decodes cleanly end to end (no torn frames).
    let mut last = Lsn::NULL;
    let end = log
        .scan_refs(log.truncation_point(), Lsn::MAX, |rec| {
            let (header, _) = rec.view()?;
            assert!(header.lsn > last);
            last = header.lsn;
            Ok(true)
        })
        .unwrap();
    assert_eq!(end, log.tail_lsn());
}

/// Deterministic crash-point check: the boundary between flushed and
/// unflushed is exact, and the log continues cleanly from the cut.
#[test]
fn discard_unflushed_boundary_is_exact_and_log_continues() {
    let log = LogManager::new(LogConfig::default());
    let a = log.append(&payload_rec(1, 1, 64));
    let b = log.append(&payload_rec(1, 2, 64));
    log.flush_to(b);
    let flushed = log.flushed_lsn();
    let c = log.append(&payload_rec(1, 3, 64));
    let d = log.append(&payload_rec(1, 4, 64));
    log.discard_unflushed();

    assert_eq!(log.tail_lsn(), flushed);
    assert_eq!(
        log.get_record_ref(a).and_then(|r| marker_of(&r)).unwrap(),
        1
    );
    assert_eq!(
        log.get_record_ref(b).and_then(|r| marker_of(&r)).unwrap(),
        2
    );
    assert!(log.get_record_ref(c).and_then(|r| marker_of(&r)).is_err());
    assert!(log.get_record_ref(d).and_then(|r| marker_of(&r)).is_err());

    // New appends continue exactly at the crash point.
    let e = log.append(&payload_rec(2, 5, 64));
    assert_eq!(e, flushed);
    assert_eq!(
        log.get_record_ref(e).and_then(|r| marker_of(&r)).unwrap(),
        5
    );
    log.flush_to(e);

    // A stamped record appends after the cut too.
    log.append(&LogRecord {
        payload: LogPayload::Commit {
            at: Timestamp::from_secs(9),
        },
        ..payload_rec(2, 0, 8)
    });
    assert!(log.tail_lsn() > e);
}
