//! Probes: after the timed window, a timed loop over one layer's public
//! function, on the live database or on a standalone instance, giving that
//! layer's unit cost. They run in the traced run only and never touch an
//! end-to-end number.

use crate::gen::Rng;
use crate::script::Run;
use crate::spec;
use rewind_common::{Lsn, ObjectId, PageId, TxnId};
use rewind_core::{Result, Value};
use rewind_txn::{LockKey, LockManager, LockMode};
use rewind_wal::{find_split_lsn, LogConfig, LogManager, LogPayload, LogRecord};
use std::hint::black_box;
use std::time::{Duration, Instant};

#[derive(Default)]
pub struct Probes {
    pub lock_acquire_ns: f64,
    pub get_ns: f64,
    pub pool_reads_per_get: f64,
    pub scan_rows_per_s: f64,
    pub hit_ns: f64,
    pub miss_ns: f64,
    pub append_ns: f64,
    pub get_record_ns: f64,
    pub scan_mib_per_s: f64,
    pub split_search_us: f64,
    pub device_stall_us: f64,
    /// Log records per finished transaction over a sample of the log's tail:
    /// a count the unattributed share needs and no counter gives.
    pub log_records_per_kib: f64,
}

fn per_op_ns(t0: Instant, ops: usize) -> f64 {
    t0.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// `LockManager::acquire` of a fresh row key in X, 16 keys per transaction,
/// with the `release_all` that ends each transaction amortised in.
fn lock_acquire() -> Result<f64> {
    const OPS: usize = 200_000;
    let locks = LockManager::new(Duration::from_secs(1));
    let keys: Vec<LockKey> = (0..16u64)
        .map(|k| LockKey::row(ObjectId(42), &k.to_be_bytes()))
        .collect();
    let t0 = Instant::now();
    for i in 0..OPS / keys.len() {
        let txn = TxnId(i as u64 + 1);
        for key in &keys {
            locks.acquire(txn, key, LockMode::X)?;
        }
        locks.release_all(txn);
    }
    Ok(per_op_ns(t0, OPS))
}

/// `LogManager::append` of a 200-byte update on a standalone log.
fn log_append() -> f64 {
    const OPS: usize = 100_000;
    let log = LogManager::new(LogConfig::default());
    let rec = LogRecord {
        lsn: Lsn::NULL,
        txn: TxnId(7),
        prev_lsn: Lsn::NULL,
        page: PageId(9),
        prev_page_lsn: Lsn::NULL,
        object: ObjectId(42),
        undo_next: Lsn::NULL,
        flags: 0,
        payload: LogPayload::UpdateRecord {
            slot: 3,
            old: vec![0xAB; 100],
            new: vec![0xCD; 100],
        },
    };
    let t0 = Instant::now();
    for _ in 0..OPS {
        black_box(log.append(&rec));
    }
    per_op_ns(t0, OPS)
}

pub fn run_probes(run: &Run<'_>, seed: u64) -> Result<Probes> {
    let db = run.db();
    let mut rng = Rng::fork(seed, 2_000);
    let mut p = Probes {
        lock_acquire_ns: lock_acquire()?,
        append_ns: log_append(),
        ..Probes::default()
    };

    // Database::get of resident customer rows, 100 to a transaction.
    {
        const OPS: usize = 20_000;
        let s = spec::SCALE;
        let keys: Vec<[Value; 3]> = (0..OPS)
            .map(|_| {
                [
                    Value::U64(1 + rng.below(s.warehouses)),
                    Value::U64(1 + rng.below(s.districts_per_warehouse)),
                    Value::U64(1 + rng.below(s.customers_per_district)),
                ]
            })
            .collect();
        let warm = |keys: &[[Value; 3]]| -> Result<()> {
            for chunk in keys.chunks(100) {
                let txn = db.begin();
                for key in chunk {
                    black_box(db.get(&txn, "customer", key)?);
                }
                db.commit(txn)?;
            }
            Ok(())
        };
        warm(&keys)?;
        let pool0 = db.pool_stats();
        let t0 = Instant::now();
        warm(&keys)?;
        p.get_ns = per_op_ns(t0, OPS);
        let pool = db.pool_stats().delta(pool0);
        p.pool_reads_per_get = (pool.hits + pool.misses) as f64 / OPS as f64;
    }

    // Live scan_all(customer), best of three.
    for _ in 0..3 {
        let txn = db.begin();
        let t0 = Instant::now();
        let rows = db.scan_all(&txn, "customer");
        let secs = t0.elapsed().as_secs_f64();
        db.commit(txn)?;
        p.scan_rows_per_s = p.scan_rows_per_s.max(rows?.len() as f64 / secs);
    }

    // The retained log: sequential scan, then random reads at sampled LSNs.
    let log = db.log();
    let (from, to) = (log.truncation_point(), log.tail_lsn());
    let mut lsns = Vec::new();
    let mut records = 0u64;
    let t0 = Instant::now();
    log.scan_views(from, to, |header, _| {
        records += 1;
        if records.is_multiple_of(64) {
            lsns.push(header.lsn);
        }
        Ok(true)
    })?;
    let bytes = to.bytes_since(from);
    p.scan_mib_per_s = bytes as f64 / (1u64 << 20) as f64 / t0.elapsed().as_secs_f64();
    p.log_records_per_kib = records as f64 / (bytes as f64 / 1024.0);
    for i in (1..lsns.len()).rev() {
        lsns.swap(i, rng.below(i as u64 + 1) as usize);
    }
    lsns.truncate(20_000);
    let t0 = Instant::now();
    for lsn in &lsns {
        black_box(log.get_record_ref(*lsn)?.frame_len());
    }
    p.get_record_ns = per_op_ns(t0, lsns.len());

    // find_split_lsn at the near and far marks.
    let now = run.finished();
    let mut searches = Vec::new();
    for back in [spec::NEAR_TXNS, spec::FAR_TXNS] {
        if let Some(at) = run.marks().time_nearest(now, back) {
            let t0 = Instant::now();
            black_box(find_split_lsn(log, at)?);
            searches.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    p.split_search_us = crate::stats::mean(&searches);

    // One stall of the modeled device, as this host's timer delivers it.
    let delay = std::time::Duration::from_micros(run.device_delay_us());
    if !delay.is_zero() {
        const OPS: usize = 200;
        let t0 = Instant::now();
        for _ in 0..OPS {
            std::thread::sleep(delay);
        }
        p.device_stall_us = per_op_ns(t0, OPS) / 1e3;
    }

    // The pool's hit path, then its miss path with the device delay off:
    // flush_all + drop_cache empty the pool, so every first read misses.
    let pool = &db.parts().pool;
    let pages = db.stats()?.allocated_pages as u64;
    let resident: Vec<PageId> = (1..pages)
        .map(PageId)
        .filter(|p| pool.contains(*p))
        .collect();
    if !resident.is_empty() {
        const OPS: usize = 400_000;
        let t0 = Instant::now();
        for i in 0..OPS {
            black_box(pool.read_page(resident[i % resident.len()])?.page_lsn());
        }
        p.hit_ns = per_op_ns(t0, OPS);
    }
    run.device().set_device_delay_us(0);
    pool.flush_all()?;
    pool.drop_cache();
    let cold = (pool.capacity() as u64 / 2).min(pages.saturating_sub(1));
    let t0 = Instant::now();
    for pid in 1..=cold {
        black_box(pool.read_page(PageId(pid))?.page_lsn());
    }
    p.miss_ns = per_op_ns(t0, cold as usize);
    Ok(p)
}
