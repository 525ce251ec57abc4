//! Group-commit and oversized-segment tests: the flush coalescer's
//! durability contract (a follower is never woken before its LSN is
//! durable; `flushed` never exceeds the tail even under racing
//! `discard_unflushed`), flush coalescing under concurrent committers, and
//! the early-seal path for records larger than a segment.

use rewind_common::{Lsn, ObjectId, PageId, Result, TxnId};
use rewind_pagestore::PAGE_SIZE;
use rewind_wal::{LogConfig, LogManager, LogPayload, LogPayloadView, LogRecord, RecordRef};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

/// One in-memory log segment (mirrors `logmgr::SEGMENT_BYTES`).
const SEGMENT_BYTES: usize = 1 << 20;

type Rec = LogRecord<Vec<u8>, Box<[u8; PAGE_SIZE]>>;

fn payload_rec(txn: u64, n: usize) -> Rec {
    marked_rec(txn, 0, n)
}

/// A record carrying a unique marker in its payload, so a test can tell
/// whether the bytes at an LSN are still *its* record after crash chaos.
fn marked_rec(txn: u64, marker: u64, n: usize) -> Rec {
    let mut bytes = marker.to_le_bytes().to_vec();
    bytes.resize(n.max(8), 0x5A);
    LogRecord {
        lsn: Lsn::NULL,
        txn: TxnId(txn),
        prev_lsn: Lsn::NULL,
        page: PageId(1),
        prev_page_lsn: Lsn::NULL,
        object: ObjectId(1),
        undo_next: Lsn::NULL,
        flags: 0,
        payload: LogPayload::InsertRecord { slot: 0, bytes },
    }
}

/// Decode `rec` and return the marker [`marked_rec`] put in its bytes.
fn marker_of(rec: &RecordRef) -> Result<u64> {
    match rec.view()?.1 {
        LogPayloadView::InsertRecord { bytes, .. } => {
            Ok(u64::from_le_bytes(bytes[..8].try_into().unwrap()))
        }
        other => panic!("unexpected payload {other:?}"),
    }
}

/// A record whose frame alone exceeds one segment.
fn oversized_rec(txn: u64) -> Rec {
    payload_rec(txn, 2 * SEGMENT_BYTES)
}

// ---- oversized-record seal path --------------------------------------------

#[test]
fn oversized_record_reads_back_and_scans() {
    let log = LogManager::new(LogConfig::default());
    let a = log.append(&payload_rec(1, 64));
    let big = log.append(&oversized_rec(1));
    let b = log.append(&payload_rec(1, 64)); // seals the oversized segment
    let c = log.append(&payload_rec(1, 64));

    for &lsn in &[a, big, b, c] {
        assert_eq!(
            log.get_record_ref(lsn)
                .and_then(|r| r.view().map(|(h, _)| h))
                .unwrap()
                .lsn,
            lsn
        );
    }
    let big_frame = log.get_record_ref(big).unwrap().frame_len();
    assert!(big_frame as usize > 2 * SEGMENT_BYTES);

    // The scan walks straight across the oversized segment's boundaries.
    let mut seen = Vec::new();
    log.scan_refs(Lsn::FIRST, Lsn::MAX, |r| {
        seen.push(r.view()?.0.lsn);
        Ok(true)
    })
    .unwrap();
    assert_eq!(seen, vec![a, big, b, c]);

    // Flushing through the oversized record charges its whole frame.
    let s0 = log.io_stats().snapshot();
    log.flush_to(big);
    let s1 = log.io_stats().snapshot();
    let frame_a = log.get_record_ref(a).unwrap().frame_len();
    assert_eq!(
        s1.log_bytes_written - s0.log_bytes_written,
        frame_a + big_frame
    );
    assert_eq!(log.flushed_lsn(), b);
}

#[test]
fn truncation_drops_oversized_segments_whole() {
    let log = LogManager::new(LogConfig::default());
    let early = log.append(&payload_rec(1, 64));
    let big = log.append(&oversized_rec(1));
    let late = log.append(&payload_rec(1, 64)); // seals the oversized segment
    log.flush_to(log.tail_lsn());

    // Truncating below the oversized record keeps it…
    log.truncate_before(big);
    assert!(log
        .get_record_ref(early)
        .and_then(|r| r.view().map(|(h, _)| h))
        .is_err());
    assert_eq!(
        log.get_record_ref(big)
            .and_then(|r| r.view().map(|(h, _)| h))
            .unwrap()
            .lsn,
        big
    );

    // …truncating past it drops the whole oversized segment at once.
    log.truncate_before(late);
    assert!(log
        .get_record_ref(big)
        .and_then(|r| r.view().map(|(h, _)| h))
        .is_err());
    assert_eq!(
        log.get_record_ref(late)
            .and_then(|r| r.view().map(|(h, _)| h))
            .unwrap()
            .lsn,
        late
    );
    assert_eq!(log.truncation_point(), late);
}

#[test]
fn discard_unflushed_handles_oversized_tail() {
    let log = LogManager::new(LogConfig::default());
    let a = log.append(&payload_rec(1, 64));
    log.flush_to(a);
    let crash_point = log.flushed_lsn();

    // An unflushed oversized record (sealed by a follow-up append) must
    // evaporate entirely on discard — no partial frame survives.
    let big = log.append(&oversized_rec(1));
    let after = log.append(&payload_rec(1, 64));
    log.discard_unflushed();

    assert_eq!(log.tail_lsn(), crash_point);
    assert_eq!(log.flushed_lsn(), crash_point);
    assert_eq!(
        log.get_record_ref(a)
            .and_then(|r| r.view().map(|(h, _)| h))
            .unwrap()
            .lsn,
        a
    );
    assert!(log
        .get_record_ref(big)
        .and_then(|r| r.view().map(|(h, _)| h))
        .is_err());
    assert!(log
        .get_record_ref(after)
        .and_then(|r| r.view().map(|(h, _)| h))
        .is_err());

    // The log continues cleanly from the cut, including another oversized
    // record at the reused LSN.
    let big2 = log.append(&oversized_rec(2));
    assert_eq!(big2, crash_point);
    log.append(&payload_rec(2, 64));
    log.flush_to(log.tail_lsn());
    assert_eq!(log.flushed_lsn(), log.tail_lsn());
    assert_eq!(
        log.get_record_ref(big2)
            .and_then(|r| r.view().map(|(h, _)| h))
            .unwrap()
            .txn,
        TxnId(2)
    );
}

// ---- group-commit durability contract --------------------------------------

/// Committer threads flush their own record through the coalescer while a
/// chaos thread discards the unflushed tail. Whatever the interleaving:
/// when `flush_to` returns, the record is durable *or* its bytes were
/// discarded (never a wakeup with the record still volatile), and
/// `flushed_lsn` never exceeds `tail_lsn`.
#[test]
fn followers_never_wake_before_durable_even_racing_discard() {
    let log = Arc::new(LogManager::new(LogConfig::default()));
    let stop = Arc::new(AtomicBool::new(false));

    let committers: Vec<_> = (0..4u64)
        .map(|t| {
            let log = log.clone();
            thread::spawn(move || {
                for i in 0..2_000u64 {
                    let marker = ((t + 1) << 32) | i;
                    let rec = marked_rec(t + 1, marker, 200);
                    let lsn = log.append(&rec);
                    let frame = match log.get_record_ref(lsn) {
                        Ok(r) => r.frame_len(),
                        Err(_) => continue, // discarded before we could read it
                    };
                    log.flush_to(lsn);
                    // `flushed` only ever grows, so if it does not cover our
                    // frame now, flush_to must have returned because the
                    // record was discarded — in which case the bytes at this
                    // LSN are no longer ours (LSNs are reused by *later*
                    // appends with different markers).
                    if log.flushed_lsn().0 < lsn.0 + frame {
                        if let Ok(now) = log.get_record_ref(lsn).and_then(|r| marker_of(&r)) {
                            assert_ne!(
                                now, marker,
                                "woken non-durable: record still volatile at {lsn}"
                            );
                        }
                    }
                }
            })
        })
        .collect();

    let invariant_checker = {
        let log = log.clone();
        let stop = stop.clone();
        thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                let flushed = log.flushed_lsn();
                let tail = log.tail_lsn();
                assert!(flushed <= tail, "flushed {flushed} passed tail {tail}");
            }
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
                if n.is_multiple_of(8) {
                    thread::yield_now();
                }
            }
            n
        })
    };

    for c in committers {
        c.join().unwrap();
    }
    stop.store(true, Ordering::Release);
    invariant_checker.join().unwrap();
    assert!(chaos.join().unwrap() > 0);
    assert!(log.flushed_lsn() <= log.tail_lsn());
}

/// With a modeled device sync latency, concurrent committers coalesce: the
/// number of physical flushes is strictly less than the number of commits
/// (at 4 committers it should approach one flush per batch).
#[test]
fn concurrent_flushes_coalesce_behind_one_leader() {
    let log = Arc::new(LogManager::new(LogConfig {
        flush_delay_us: 50,
        ..LogConfig::default()
    }));
    let threads = 4u64;
    let per_thread = 100u64;
    let s0 = log.io_stats().snapshot();

    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let log = log.clone();
            thread::spawn(move || {
                for _ in 0..per_thread {
                    let lsn = log.append(&payload_rec(t + 1, 120));
                    log.flush_to(lsn);
                    assert!(log.flushed_lsn().0 > lsn.0);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let commits = threads * per_thread;
    let flushes = log.io_stats().snapshot().log_flushes - s0.log_flushes;
    assert!(flushes > 0);
    assert!(
        flushes < commits,
        "no coalescing: {flushes} flushes for {commits} commits"
    );
    // Exact aggregate attribution: everything flushed is everything
    // appended — charged once, with no bystander bytes.
    assert_eq!(log.flushed_lsn(), log.tail_lsn());
    let written = log.io_stats().snapshot().log_bytes_written - s0.log_bytes_written;
    assert_eq!(written, log.total_bytes());
}
