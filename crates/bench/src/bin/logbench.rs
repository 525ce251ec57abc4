//! Microbenchmark for the lock-free log read path: concurrent backward
//! chain walks (`PreparePageAsOf`'s access pattern) against the log.
//!
//! Three configurations over the *same* log contents:
//!
//! * **mutex baseline** — every read takes one global mutex and fully
//!   decodes the record to an owned `LogRecord`, reproducing the seed
//!   implementation's `Mutex<LogInner>` + `Vec<u8>`-per-record read path;
//! * **ref walk** — `get_record_ref` + header decode, the snapshot-isolated
//!   path `prepare_page_as_of`/rollback actually execute in production;
//! * **header walk** — `get_record_header`, the borrow-in-place fast path.
//!
//! Reports per-thread-count throughput, the production ref-walk speedup at
//! 4 threads (the acceptance bar is ≥ 2×), and allocations per record on
//! both lock-free walks (the acceptance bar is 0), measured by a counting
//! global allocator.
//!
//! ```text
//! cargo run -p rewind-bench --release --bin logbench [-- --quick]
//! ```

use rewind_common::testalloc::{thread_allocations, CountingAllocator};
use rewind_common::{Lsn, ObjectId, PageId, TxnId};
use rewind_wal::{LogConfig, LogManager, LogPayload, LogRecord};
use std::sync::atomic::{AtomicU64, Ordering};
// tidy: allow(std-sync) -- the seed-era mutex read path is the baseline under measurement
use std::sync::{Arc, Barrier, Mutex};
use std::thread;
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Build a log with `pages` interleaved per-page chains, `mods` records
/// each — the shape `PreparePageAsOf` walks. Returns the chain heads
/// (each page's most recent LSN).
fn build_log(pages: u64, mods: u64) -> (Arc<LogManager>, Vec<Lsn>) {
    // Cache sized to the walked working set: the benchmark measures the
    // read path in the warm (hits-dominated) regime, not eviction churn.
    let config = LogConfig {
        cache_blocks: 4096,
        ..LogConfig::default()
    };
    let log = Arc::new(LogManager::new(config));
    let mut heads = vec![Lsn::NULL; pages as usize];
    let row = vec![0x5Au8; 48];
    for round in 0..mods {
        for p in 0..pages {
            let rec = LogRecord {
                lsn: Lsn::NULL,
                txn: TxnId(round + 1),
                prev_lsn: Lsn::NULL,
                page: PageId(p + 1),
                prev_page_lsn: heads[p as usize],
                object: ObjectId(1),
                undo_next: Lsn::NULL,
                flags: 0,
                payload: LogPayload::UpdateRecord {
                    slot: 0,
                    old: row.clone(),
                    new: row.clone(),
                },
            };
            heads[p as usize] = log.append(&rec);
        }
    }
    // Filler past the chains so the active segment rolls and every chain
    // record is sealed: the measured walks run entirely on the lock-free
    // snapshot path.
    let filler = vec![0u8; 4096];
    for i in 0..512u64 {
        log.append(&LogRecord {
            lsn: Lsn::NULL,
            txn: TxnId(1),
            prev_lsn: Lsn::NULL,
            page: PageId(pages + 2 + i),
            prev_page_lsn: Lsn::NULL,
            object: ObjectId(1),
            undo_next: Lsn::NULL,
            flags: 0,
            payload: LogPayload::InsertRecord {
                slot: 0,
                bytes: filler.clone(),
            },
        });
    }
    log.flush_to(log.tail_lsn());
    (log, heads)
}

/// Walk every page chain to its root through `get_record_ref` — the path
/// production chain walks take; returns records visited.
fn walk_ref(log: &LogManager, heads: &[Lsn]) -> u64 {
    let mut n = 0u64;
    for &head in heads {
        let mut cur = head;
        while cur.is_valid() {
            let rec = log.get_record_ref(cur).expect("read");
            let header = rec.header().expect("header");
            cur = header.prev_page_lsn;
            n += 1;
        }
    }
    n
}

/// Walk every page chain to its root through the header-only fast path.
fn walk_header(log: &LogManager, heads: &[Lsn]) -> u64 {
    let mut n = 0u64;
    for &head in heads {
        let mut cur = head;
        while cur.is_valid() {
            let header = log.get_record_header(cur).expect("read");
            cur = header.prev_page_lsn;
            n += 1;
        }
    }
    n
}

/// The seed read path: one global mutex around a full owned decode.
fn walk_mutex(log: &Mutex<Arc<LogManager>>, heads: &[Lsn]) -> u64 {
    let mut n = 0u64;
    for &head in heads {
        let mut cur = head;
        while cur.is_valid() {
            let guard = log.lock().unwrap();
            let rec = guard.get_record(cur).expect("read");
            drop(guard);
            cur = rec.prev_page_lsn;
            n += 1;
        }
    }
    n
}

/// Run `threads` workers, each walking its share of the chains `reps`
/// times; returns records/second.
fn bench<F>(threads: usize, heads: &[Lsn], reps: u64, work: F) -> f64
where
    F: Fn(&[Lsn]) -> u64 + Send + Sync,
{
    let barrier = Barrier::new(threads + 1);
    let total = AtomicU64::new(0);
    let chunk = heads.len().div_ceil(threads);
    thread::scope(|scope| {
        for slice in heads.chunks(chunk) {
            scope.spawn(|| {
                barrier.wait();
                let mut n = 0u64;
                for _ in 0..reps {
                    n += work(slice);
                }
                total.fetch_add(n, Ordering::Relaxed);
                barrier.wait();
            });
        }
        barrier.wait();
        let start = Instant::now();
        barrier.wait();
        let elapsed = start.elapsed();
        total.load(Ordering::Relaxed) as f64 / elapsed.as_secs_f64()
    })
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (pages, mods, reps) = if quick {
        (32u64, 400u64, 4u64)
    } else {
        (64, 1500, 8)
    };

    println!("# log read path microbenchmark");
    println!("# {pages} pages x {mods} chained records, walked backward to the root\n");

    let (log, heads) = build_log(pages, mods);
    println!(
        "log: {:.1} MiB in {} records",
        log.total_bytes() as f64 / (1 << 20) as f64,
        pages * mods
    );

    // Allocation count per record on both warm lock-free walks.
    let warm = walk_ref(&log, &heads);
    let before = thread_allocations();
    let walked = walk_ref(&log, &heads);
    let ref_allocs = thread_allocations() - before;
    assert_eq!(warm, walked);
    let before = thread_allocations();
    walk_header(&log, &heads);
    let header_allocs = thread_allocations() - before;
    println!(
        "allocations per record, warm: ref walk {:.4} ({ref_allocs}/{walked}), header walk {:.4} ({header_allocs}/{walked})",
        ref_allocs as f64 / walked as f64,
        header_allocs as f64 / walked as f64
    );
    let allocs = ref_allocs + header_allocs;

    let mutexed = Mutex::new(log.clone());
    println!(
        "\n{:>8} | {:>14} | {:>14} | {:>8} | {:>14} | {:>8}",
        "threads", "mutex rec/s", "ref rec/s", "speedup", "header rec/s", "speedup"
    );
    println!("{}", "-".repeat(80));
    let mut ratio_at_4 = 0.0;
    for threads in [1usize, 2, 4, 8] {
        let base = bench(threads, &heads, reps, |slice| walk_mutex(&mutexed, slice));
        let refs = bench(threads, &heads, reps, |slice| walk_ref(&log, slice));
        let hdrs = bench(threads, &heads, reps, |slice| walk_header(&log, slice));
        let ref_ratio = refs / base;
        let hdr_ratio = hdrs / base;
        if threads == 4 {
            ratio_at_4 = ref_ratio;
        }
        println!(
            "{threads:>8} | {base:>14.0} | {refs:>14.0} | {ref_ratio:>7.2}x | {hdrs:>14.0} | {hdr_ratio:>7.2}x"
        );
    }

    println!();
    if ratio_at_4 >= 2.0 {
        println!(
            "PASS: 4-thread get_record_ref chain walk is {ratio_at_4:.2}x the mutex baseline (>= 2x)"
        );
    } else {
        println!("WARN: 4-thread speedup {ratio_at_4:.2}x below the 2x target on this machine");
    }
    if allocs == 0 {
        println!("PASS: lock-free chain walks perform zero allocations per record");
    } else {
        println!("WARN: lock-free chain walks allocated {allocs} times");
    }
}
