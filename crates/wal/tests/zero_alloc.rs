//! Proof that the header-only chain-walk path allocates nothing per record.
//!
//! The shared counting allocator (`rewind_common::testalloc`) wraps the
//! system allocator and counts per thread, so the proofs below can run on
//! parallel test threads without counting each other's allocations. After
//! warming the cache model, a backward chain walk over sealed history
//! (header, borrowed payload view and undo application against a page) must
//! perform **zero** heap allocations, and so must building the compensation
//! payloads rollback logs for decoded records.

use rewind_common::testalloc::{thread_allocations as allocations, CountingAllocator};
use rewind_common::{Lsn, ObjectId, PageId, TxnId};
use rewind_pagestore::{Page, PageType, PAGE_SIZE};
use rewind_wal::{LogConfig, LogManager, LogPayload, LogPayloadView, LogRecord, PayloadKind};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn header_only_chain_walk_allocates_nothing() {
    let pid = PageId(5);
    let log = LogManager::new(LogConfig::default());
    let mut page = Page::formatted(pid, ObjectId(1), PageType::BTreeLeaf);
    page.insert_record(0, b"seed-row").unwrap();

    // Build one page's chain: enough updates to seal several segments so
    // the walk below reads sealed segments.
    let mut lsns = Vec::new();
    for i in 0..4_000u32 {
        let payload = LogPayload::UpdateRecord {
            slot: 0,
            old: page.record(0).unwrap().to_vec(),
            new: format!("value-{i:04}-{}", "x".repeat(700)).into_bytes(),
        };
        let rec = LogRecord {
            lsn: Lsn::NULL,
            txn: TxnId(1),
            prev_lsn: Lsn::NULL,
            page: pid,
            prev_page_lsn: page.page_lsn(),
            object: ObjectId(1),
            undo_next: Lsn::NULL,
            flags: 0,
            payload: payload.clone(),
        };
        let lsn = log.append(&rec);
        payload.redo(&mut page, pid, lsn).unwrap();
        lsns.push(lsn);
    }

    // Walk only sealed history (stay well below the tail segment), long
    // enough to be meaningful: ~2000 records.
    let walk_from = lsns[2000];
    let walk_records = 1800u64;

    let run_walk = |p: &mut Page| {
        // Rewind from a known state at walk_from: start the chain there.
        let mut cur = walk_from;
        let mut undone = 0u64;
        while cur.is_valid() && undone < walk_records {
            let rec = log.get_record_ref(cur).unwrap();
            let (header, view) = rec.view().unwrap();
            assert_eq!(header.page, pid);
            assert!(matches!(view, LogPayloadView::UpdateRecord { .. }));
            view.undo(p, pid).unwrap();
            cur = header.prev_page_lsn;
            undone += 1;
        }
        undone
    };

    // Warm pass: populates the cache model's block map (a one-time cost,
    // exactly like a real cache).
    let mut scratch_page = page.clone();
    scratch_page.set_page_lsn(walk_from);
    // The page record must match the state at walk_from for undo to apply;
    // reconstruct it by replaying from the log's own view of walk_from.
    let rec = log.get_record_ref(walk_from).unwrap();
    match rec.view().unwrap().1 {
        LogPayloadView::UpdateRecord { new, .. } => {
            scratch_page.update_record(0, new).unwrap();
        }
        other => panic!("unexpected {other:?}"),
    }
    let warm_state = scratch_page.clone();
    assert_eq!(run_walk(&mut scratch_page), walk_records);

    // Measured pass: zero allocations per record — zero allocations at all.
    let mut measured_page = warm_state;
    let before = allocations();
    let undone = run_walk(&mut measured_page);
    let after = allocations();
    assert_eq!(undone, walk_records);
    assert_eq!(
        after - before,
        0,
        "header-only chain walk must not allocate (got {} allocations over {} records)",
        after - before,
        undone
    );
    assert_eq!(
        measured_page.record(0).unwrap(),
        scratch_page.record(0).unwrap()
    );
}

#[test]
fn header_reads_after_warmup_allocate_nothing() {
    let log = LogManager::new(LogConfig::default());
    let mut lsns = Vec::new();
    for i in 0..3_000u64 {
        lsns.push(log.append(&LogRecord {
            lsn: Lsn::NULL,
            txn: TxnId(i),
            prev_lsn: Lsn::NULL,
            page: PageId(i % 64),
            prev_page_lsn: Lsn::NULL,
            object: ObjectId(1),
            undo_next: Lsn::NULL,
            flags: 0,
            payload: LogPayload::InsertRecord {
                slot: 0,
                bytes: vec![7u8; 900],
            },
        }));
    }
    // Warm: snapshot + cache blocks.
    for &l in &lsns[..2000] {
        log.get_record_ref(l).unwrap().header().unwrap();
    }
    let before = allocations();
    for &l in &lsns[..2000] {
        let h = log.get_record_ref(l).unwrap().header().unwrap();
        assert_eq!(h.lsn, l);
    }
    assert_eq!(
        allocations() - before,
        0,
        "warm header reads must not allocate"
    );
}

#[test]
fn compensation_of_decoded_records_allocates_nothing() {
    let log = LogManager::new(LogConfig::default());
    let image = Box::new([6u8; PAGE_SIZE]);
    let payloads = [
        LogPayload::InsertRecord {
            slot: 1,
            bytes: b"inserted".to_vec(),
        },
        LogPayload::DeleteRecord {
            slot: 2,
            old: b"deleted".to_vec(),
        },
        LogPayload::UpdateRecord {
            slot: 3,
            old: b"before".to_vec(),
            new: b"after".to_vec(),
        },
        LogPayload::BootWrite {
            offset: 16,
            old: vec![0; 8],
            new: vec![1; 8],
        },
        LogPayload::RestoreImage {
            old: image.clone(),
            new: image,
        },
    ];
    let record = |page: u64, payload| LogRecord {
        lsn: Lsn::NULL,
        txn: TxnId(1),
        prev_lsn: Lsn::NULL,
        page: PageId(page),
        prev_page_lsn: Lsn::NULL,
        object: ObjectId(1),
        undo_next: Lsn::NULL,
        flags: 0,
        payload,
    };
    let lsns: Vec<Lsn> = payloads
        .into_iter()
        .map(|payload| log.append(&record(5, payload)))
        .collect();
    // More than a segment of padding, so the records above are read from a
    // sealed segment.
    for _ in 0..200 {
        log.append(&record(
            6,
            LogPayload::InsertRecord {
                slot: 0,
                bytes: vec![0; 8_000],
            },
        ));
    }

    // Read, decode and compensate each record; keep only the kinds.
    let compensate = || {
        let mut kinds = [None; 5];
        for (kind, &lsn) in kinds.iter_mut().zip(&lsns) {
            let rec = log.get_record_ref(lsn).unwrap();
            let (_, view) = rec.view().unwrap();
            *kind = view.compensation().map(|c| c.kind());
        }
        kinds
    };
    // Warm pass: the cache model.
    compensate();
    let before = allocations();
    let kinds = compensate();
    let allocated = allocations() - before;
    assert_eq!(
        allocated, 0,
        "compensating decoded records must not allocate (got {allocated})"
    );
    assert_eq!(
        kinds,
        [
            Some(PayloadKind::DeleteRecord),
            Some(PayloadKind::InsertRecord),
            Some(PayloadKind::UpdateRecord),
            Some(PayloadKind::BootWrite),
            Some(PayloadKind::RestoreImage),
        ]
    );
}
