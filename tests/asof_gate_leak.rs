//! Regression test for the prepare-gate leak: the pre-shard snapshot store
//! inserted one `Arc<Mutex<()>>` per first-prepared page into a global
//! `preparing` map and never removed it, so the gate table grew with every
//! page a snapshot ever touched. The sharded gate table holds entries only
//! while a preparation is in flight: preparing 10k pages must leave it
//! empty, and mid-flight it is bounded by the number of concurrent
//! preparers, never by pages touched.

use parking_lot::{Mutex, RwLock};
use rewind_access::store::Store;
use rewind_buffer::BufferPool;
use rewind_common::{ObjectId, PageId, SimClock};
use rewind_pagestore::{FileManager, MemFileManager, Page, PageType};
use rewind_recovery::{take_checkpoint, EngineParts};
use rewind_snapshot::AsOfSnapshot;
use rewind_txn::{ObjectLatches, TxnManager};
use rewind_wal::{LogConfig, LogManager};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

const PAGES: u64 = 10_000;

fn engine_with_pages() -> Arc<EngineParts> {
    let fm = Arc::new(MemFileManager::new());
    for i in 1..=PAGES {
        let pid = PageId(i);
        fm.write_page(pid, &Page::formatted(pid, ObjectId(1), PageType::Heap))
            .unwrap();
    }
    let log = Arc::new(LogManager::new(LogConfig::default()));
    let pool = Arc::new(BufferPool::new(fm, log.clone(), 128));
    Arc::new(EngineParts {
        pool,
        log,
        latches: Arc::new(ObjectLatches::new()),
        alloc_lock: Mutex::new(()),
        mod_gate: RwLock::new(()),
        cow_sinks: RwLock::new(Vec::new()),
        cow_token: AtomicU64::new(1),
        fpi_interval: 0,
    })
}

#[test]
fn gate_table_stays_bounded_over_10k_prepared_pages() {
    let parts = engine_with_pages();
    let clock = SimClock::new();
    clock.advance_secs(1);
    let txns = TxnManager::new();
    take_checkpoint(&parts.log, &txns, &parts.pool, &clock).unwrap();
    let split = parts.log.tail_lsn();
    let snap = AsOfSnapshot::create_at_lsn("gates", &parts, clock.now(), split).unwrap();

    const WORKERS: u64 = 4;
    let max_seen = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for w in 0..WORKERS {
            let snap = &snap;
            let max_seen = &max_seen;
            s.spawn(move || {
                let store = snap.store();
                for i in (1 + w..=PAGES).step_by(WORKERS as usize) {
                    store
                        .with_page(PageId(i), |p| {
                            assert_eq!(p.page_id(), PageId(i));
                            Ok(())
                        })
                        .unwrap();
                    if i % 64 == 0 {
                        max_seen.fetch_max(snap.prepare_gate_entries(), Ordering::Relaxed);
                    }
                }
            });
        }
    });

    // Mid-flight the table is bounded by concurrent preparers, not by the
    // pages touched; quiescent it is empty.
    assert!(
        max_seen.load(Ordering::Relaxed) <= 2 * WORKERS as usize,
        "gate table grew with pages touched: saw {} entries",
        max_seen.load(Ordering::Relaxed)
    );
    assert_eq!(snap.prepare_gate_entries(), 0, "gate entries leaked");
    // Every page really was prepared (this is not a no-op workload)...
    assert_eq!(snap.side_pages(), PAGES as usize);
    // ...and re-reads are pure side-file hits that create no gates.
    let store = snap.store();
    for i in 1..=100u64 {
        store.with_page(PageId(i), |_| Ok(())).unwrap();
    }
    assert_eq!(snap.prepare_gate_entries(), 0);
}
