//! Batched-I/O accounting oracle: replaying one serial trace — including
//! staged vectored read runs and flushes — must classify every access (hit
//! vs IO), charge every write-back and retry, and leave the same residency
//! at **every I/O batch size** as the same pool at batch size 1. Batching
//! may only change device-op counts (`vectored_read_ops`,
//! `batched_write_ops`), never per-page accounting — the invariant the
//! ROADMAP's batched-I/O milestone pins.

use proptest::prelude::*;
use rewind_buffer::BufferPool;
use rewind_common::{Lsn, ObjectId, PageId};
use rewind_pagestore::{FaultInjector, FileManager, MemFileManager, PageType};
use rewind_wal::{LogConfig, LogManager};
use std::sync::Arc;

#[derive(Clone, Debug)]
enum Op {
    /// Shared-latch access.
    Read(u64),
    /// Exclusive access that dirties the page at the given LSN offset.
    Write(u64),
    /// Stage a contiguous pid run through the vectored read path, then
    /// consume it — the bulk-scan prefetch shape.
    StageRun(u64, u64),
    /// Flush every dirty frame through the one flush routine.
    FlushAll,
    /// Crash simulation: all volatile state vanishes.
    DropCache,
}

fn op_strategy(pages: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (1..=pages).prop_map(Op::Read),
        5 => (1..=pages).prop_map(Op::Write),
        4 => ((1..=pages), (1u64..=8)).prop_map(|(s, n)| Op::StageRun(s, n)),
        1 => Just(Op::FlushAll),
        1 => Just(Op::DropCache),
    ]
}

/// Counters a batch size must not change.
#[derive(Debug, PartialEq, Eq)]
struct Accounting {
    hits: u64,
    misses: u64,
    evictions: u64,
    page_reads: u64,
    page_writes: u64,
    io_retries: u64,
    resident: Vec<u64>,
}

fn replay(ops: &[Op], cap: usize, batch: usize) -> Accounting {
    let fm = Arc::new(MemFileManager::new());
    let log = Arc::new(LogManager::new(LogConfig::default()));
    let pool = BufferPool::with_io(fm.clone(), log, cap, batch);
    let io0 = fm.io_stats().snapshot();
    let mut lsn = 1u64;
    for op in ops {
        match op {
            Op::Read(p) => pool.with_page(PageId(*p), |_| Ok(())).unwrap(),
            Op::Write(p) => pool
                .with_page_mut(PageId(*p), |v| {
                    if v.page().page_type() == PageType::Free {
                        v.page_mut().format(PageId(*p), ObjectId(1), PageType::Heap);
                    }
                    v.page_mut().set_page_lsn(Lsn(lsn));
                    v.mark_dirty(Lsn(lsn));
                    lsn += 1;
                    Ok(())
                })
                .unwrap(),
            Op::StageRun(start, n) => {
                let pids: Vec<PageId> = (*start..*start + *n).map(PageId).collect();
                let mut staged = pool.stage_read_run(&pids);
                for &pid in &pids {
                    let pre = staged
                        .iter()
                        .position(|(p, _)| *p == pid)
                        .map(|i| staged.remove(i).1);
                    let g = pool.read_page_staged_in(pid, None, pre).unwrap();
                    assert!(g.page_id() == pid || g.page_id() == PageId(0));
                }
            }
            Op::FlushAll => pool.flush_all().unwrap(),
            Op::DropCache => pool.drop_cache(),
        }
    }
    let io = fm.io_stats().snapshot().delta(io0);
    let s = pool.stats();
    let mut resident: Vec<u64> = (1..=512u64).filter(|&p| pool.contains(PageId(p))).collect();
    resident.sort_unstable();
    assert_eq!(pool.pinned_frames(), 0, "no lost pins on a serial trace");
    assert_eq!(
        io.page_reads, s.misses,
        "every miss is exactly one per-page read, staged or scalar"
    );
    Accounting {
        hits: s.hits,
        misses: s.misses,
        evictions: s.evictions,
        page_reads: io.page_reads,
        page_writes: io.page_writes,
        io_retries: io.io_retries,
        resident,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// One serial trace, one pool routine at three batch sizes: the
    /// reference is batch 1, and batches of 4 and 16 pages (staged reads,
    /// flush chunks) must match its every per-page counter and its final
    /// residency bit for bit.
    #[test]
    fn batched_backend_is_accounting_identical_to_scalar(
        ops in proptest::collection::vec(op_strategy(24), 1..160),
        cap in prop_oneof![Just(6usize), Just(16usize)],
    ) {
        let scalar = replay(&ops, cap, 1);
        for batch in [4usize, 16] {
            let batched = replay(&ops, cap, batch);
            prop_assert_eq!(&batched, &scalar, "batch size {}", batch);
        }
    }
}

/// Deterministic vectored-op arithmetic: staging 16 fresh contiguous pages
/// at batch 4 must issue exactly 4 vectored device ops (one per chunk) and
/// 16 per-page reads; the scalar pool issues 16 scalar reads and no
/// vectored ops. Classification is identical either way.
#[test]
fn stage_read_run_coalesces_to_exact_vectored_op_count() {
    let run = |batch: usize| {
        let fm = Arc::new(MemFileManager::new());
        let log = Arc::new(LogManager::new(LogConfig::default()));
        let pool = BufferPool::with_io(fm.clone(), log, 32, batch);
        let pids: Vec<PageId> = (1..=16).map(PageId).collect();
        let mut staged = pool.stage_read_run(&pids);
        for &pid in &pids {
            let pre = staged
                .iter()
                .position(|(p, _)| *p == pid)
                .map(|i| staged.remove(i).1);
            pool.read_page_staged_in(pid, None, pre).unwrap();
        }
        let io = fm.io_stats().snapshot();
        (io.page_reads, io.vectored_read_ops, pool.stats().misses)
    };
    assert_eq!(run(1), (16, 0, 16), "scalar: no vectored ops");
    assert_eq!(run(4), (16, 4, 16), "batch 4: ceil(16/4) vectored ops");
    assert_eq!(run(16), (16, 1, 16), "batch 16: one vectored op");
}

/// A transient fault on one mid-batch page must cost exactly one retry and
/// one extra scalar read — the same arithmetic as the scalar backend — and
/// only that page's slot of the batch fails over.
#[test]
fn mid_batch_transient_read_costs_exactly_one_retry() {
    let run = |batch: usize| {
        let fi = Arc::new(FaultInjector::new(7));
        let log = Arc::new(LogManager::new(LogConfig::default()));
        let pool = BufferPool::with_io(fi.clone(), log, 16, batch);
        // Second read of the run fails transiently (EIO before accounting).
        fi.arm_eio_reads(2);
        let pids: Vec<PageId> = (10..14).map(PageId).collect();
        let mut staged = pool.stage_read_run(&pids);
        for &pid in &pids {
            let pre = staged
                .iter()
                .position(|(p, _)| *p == pid)
                .map(|i| staged.remove(i).1);
            pool.read_page_staged_in(pid, None, pre).unwrap();
        }
        let io = fi.inner().io_stats().snapshot();
        (io.page_reads, io.io_retries, pool.stats().misses)
    };
    // arm_eio_reads(2) faults the first two read attempts: staged slots 0
    // and 1 fail, each resumes the scalar retry protocol at its own miss.
    assert_eq!(run(1), (4, 2, 4), "scalar: 2 retries, 4 pages read");
    assert_eq!(run(4), (4, 2, 4), "batched: identical retry arithmetic");
}
