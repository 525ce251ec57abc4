//! Serial-trace accounting oracle: the pool must classify every access of a
//! serial trace (hit vs IO), charge every write-back, and evict exactly the
//! frames a single-`Mutex<HashMap>` + single-clock pool would have. The
//! hit/IO counters are the measured quantities of the paper's Figs. 5–11;
//! this test is the "must not drift" invariant from the ROADMAP, checked by
//! replaying random traces against an in-test reimplementation of that
//! single-clock algorithm.

use proptest::prelude::*;
use rewind_buffer::BufferPool;
use rewind_common::{Lsn, ObjectId, PageId};
use rewind_pagestore::{FileManager, MemFileManager, PageType};
use rewind_wal::{LogConfig, LogManager};
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Clone, Debug)]
enum Op {
    /// Shared-latch access.
    Read(u64),
    /// Exclusive access that dirties the page at the given LSN offset.
    Write(u64),
    /// Flush one page if resident and dirty.
    FlushPage(u64),
    /// Flush every dirty frame.
    FlushAll,
    /// Crash simulation: all volatile state vanishes.
    DropCache,
}

fn op_strategy(pages: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (1..=pages).prop_map(Op::Read),
        6 => (1..=pages).prop_map(Op::Write),
        1 => (1..=pages).prop_map(Op::FlushPage),
        1 => Just(Op::FlushAll),
        1 => Just(Op::DropCache),
    ]
}

/// The single-clock pool, reduced to its accounting-relevant state machine:
/// one page table, one clock hand over `cap` frames, used bits, dirty
/// bits. Serially, pins are always zero outside an access, so the victim
/// search needs only the used bit.
struct Oracle {
    cap: usize,
    map: HashMap<u64, usize>,
    frame_pid: Vec<Option<u64>>,
    used: Vec<bool>,
    dirty: Vec<bool>,
    hand: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    page_writes: u64,
}

impl Oracle {
    fn new(cap: usize) -> Oracle {
        Oracle {
            cap,
            map: HashMap::new(),
            frame_pid: vec![None; cap],
            used: vec![false; cap],
            dirty: vec![false; cap],
            hand: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            page_writes: 0,
        }
    }

    fn access(&mut self, pid: u64, write: bool) {
        let idx = match self.map.get(&pid) {
            Some(&i) => {
                self.hits += 1;
                i
            }
            None => {
                // Clock sweep, exactly as the pool's claim_victim: up to
                // two full sweeps, first pass clears used bits.
                let mut victim = None;
                for _ in 0..2 * self.cap + 1 {
                    let i = self.hand % self.cap;
                    self.hand += 1;
                    if self.used[i] {
                        self.used[i] = false;
                        continue;
                    }
                    victim = Some(i);
                    break;
                }
                let i = victim.expect("serial trace can always evict");
                if let Some(old) = self.frame_pid[i] {
                    if self.dirty[i] {
                        self.page_writes += 1;
                        self.dirty[i] = false;
                    }
                    self.map.remove(&old);
                    self.evictions += 1;
                }
                self.misses += 1; // one random page read
                self.frame_pid[i] = Some(pid);
                self.map.insert(pid, i);
                i
            }
        };
        self.used[idx] = true;
        if write {
            self.dirty[idx] = true;
        }
    }

    fn flush_page(&mut self, pid: u64) {
        if let Some(&i) = self.map.get(&pid) {
            if self.dirty[i] {
                self.page_writes += 1;
                self.dirty[i] = false;
            }
        }
    }

    fn flush_all(&mut self) {
        for i in 0..self.cap {
            if self.frame_pid[i].is_some() && self.dirty[i] {
                self.page_writes += 1;
                self.dirty[i] = false;
            }
        }
    }

    fn drop_cache(&mut self) {
        self.map.clear();
        for i in 0..self.cap {
            self.frame_pid[i] = None;
            self.used[i] = false;
            self.dirty[i] = false;
        }
    }
}

fn replay(ops: &[Op], cap: usize) -> (u64, u64, u64, u64, Vec<u64>) {
    let fm = Arc::new(MemFileManager::new());
    let log = Arc::new(LogManager::new(LogConfig::default()));
    let pool = BufferPool::new(fm.clone(), log, cap);
    let io0 = fm.io_stats().snapshot();
    let mut lsn = 1u64;
    for op in ops {
        match op {
            Op::Read(p) => pool
                .with_page(PageId(*p), |page| {
                    // the frame must hold the requested page (or the zeroed
                    // on-disk image of a never-written one)
                    assert!(page.page_id() == PageId(*p) || page.page_id() == PageId(0));
                    Ok(())
                })
                .unwrap(),
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
            Op::FlushPage(p) => pool.flush_page(PageId(*p)).unwrap(),
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
        "every miss is exactly one random page read"
    );
    (s.hits, s.misses, s.evictions, io.page_writes, resident)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// The default (non-partitioned) read path must stay bit-exact with the
    /// single-clock oracle even though a scan partition *exists* on the
    /// pool, and a partitioned cold sweep afterwards must (a) leave the
    /// phase-1 accounting untouched, (b) still count every cold page as
    /// exactly one miss/read IO, and (c) disturb at most `budget` of the
    /// frames the oracle says were resident.
    #[test]
    fn scan_partition_keeps_default_path_exact_and_bounds_damage(
        ops in proptest::collection::vec(op_strategy(24), 1..120),
        // At or above the two-frame floor, so the partition keeps it.
        budget in 2usize..6,
        sweep in 24u64..80,
    ) {
        let cap = 16usize;
        // Phase 1 oracle replay (identical to the main property).
        let mut oracle = Oracle::new(cap);
        for op in &ops {
            match op {
                Op::Read(p) => oracle.access(*p, false),
                Op::Write(p) => oracle.access(*p, true),
                Op::FlushPage(p) => oracle.flush_page(*p),
                Op::FlushAll => oracle.flush_all(),
                Op::DropCache => oracle.drop_cache(),
            }
        }

        let fm = Arc::new(MemFileManager::new());
        let log = Arc::new(LogManager::new(LogConfig::default()));
        let pool = BufferPool::new(fm.clone(), log, cap);
        // The partition exists for the whole run: its mere existence must
        // not perturb default-path accounting.
        let part = pool.scan_partition(budget);
        let mut lsn = 1u64;
        for op in &ops {
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
                Op::FlushPage(p) => pool.flush_page(PageId(*p)).unwrap(),
                Op::FlushAll => pool.flush_all().unwrap(),
                Op::DropCache => pool.drop_cache(),
            }
        }
        let s1 = pool.stats();
        prop_assert_eq!(s1.hits, oracle.hits, "default-path hits with partition present");
        prop_assert_eq!(s1.misses, oracle.misses, "default-path IOs with partition present");
        prop_assert_eq!(s1.evictions, oracle.evictions, "default-path evictions with partition present");

        // Phase 2: a cold partitioned sweep over pages the trace never
        // touched (pids 1000..). Serially every page is a fresh miss.
        let resident_before: Vec<u64> =
            (1..=512u64).filter(|&p| pool.contains(PageId(p))).collect();
        let io_before = fm.io_stats().snapshot();
        for p in 0..sweep {
            let g = pool
                .read_page_staged_in(PageId(1000 + p), Some(&part), None)
                .unwrap();
            prop_assert_eq!(g.page_id(), PageId(0)); // zeroed fresh page
        }
        let s2 = pool.stats();
        let io = fm.io_stats().snapshot().delta(io_before);
        prop_assert_eq!(s2.misses - s1.misses, sweep, "every cold sweep page is one miss");
        prop_assert_eq!(io.page_reads, sweep, "every cold sweep page is one read IO");
        let still: usize = resident_before
            .iter()
            .filter(|&&p| pool.contains(PageId(p)))
            .count();
        prop_assert!(
            still + budget >= resident_before.len(),
            "sweep of {} pages evicted {} residents, budget {}",
            sweep, resident_before.len() - still, budget
        );
        prop_assert_eq!(pool.pinned_frames(), 0, "no lost pins after sweep");
    }

    #[test]
    fn pool_matches_single_clock_oracle(
        ops in proptest::collection::vec(op_strategy(24), 1..250),
        cap in prop_oneof![Just(4usize), Just(7usize), Just(16usize)],
    ) {
        // Oracle replay.
        let mut oracle = Oracle::new(cap);
        for op in &ops {
            match op {
                Op::Read(p) => oracle.access(*p, false),
                Op::Write(p) => oracle.access(*p, true),
                Op::FlushPage(p) => oracle.flush_page(*p),
                Op::FlushAll => oracle.flush_all(),
                Op::DropCache => oracle.drop_cache(),
            }
        }
        let mut expect_resident: Vec<u64> = oracle.map.keys().copied().collect();
        expect_resident.sort_unstable();

        let (hits, misses, evictions, writes, resident) = replay(&ops, cap);
        prop_assert_eq!(hits, oracle.hits, "hits");
        prop_assert_eq!(misses, oracle.misses, "IOs");
        prop_assert_eq!(evictions, oracle.evictions, "evictions");
        prop_assert_eq!(writes, oracle.page_writes, "write-backs");
        prop_assert_eq!(resident, expect_resident, "residency");
    }
}
