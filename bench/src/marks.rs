//! Marks: the answers the bench will later ask of the past.
//!
//! At a quiesced point (no transaction in flight) the bench records the
//! simulated time together with the live answers to the questions it will put
//! to as-of snapshots of that time, and to the database after a restart.

use crate::spec;
use rewind_core::{Database, Result, Row, Timestamp, Txn, Value};
use rewind_tpcc as tpcc;
use std::sync::{Arc, Mutex};

/// Count and order-independent digest of a table's rows.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Digest {
    pub rows: u64,
    pub sum: u64,
}

impl Digest {
    pub fn of(rows: &[Row]) -> Digest {
        Digest {
            rows: rows.len() as u64,
            sum: rows.iter().fold(0u64, |s, r| s.wrapping_add(row_hash(r))),
        }
    }
}

fn row_hash(row: &[Value]) -> u64 {
    // FNV-1a over a tagged encoding of the values, then one avalanche step so
    // that the wrapping sum over rows does not cancel structured differences.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h = (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for v in row {
        match v {
            Value::Null => eat(&[0]),
            Value::U64(x) => {
                eat(&[1]);
                eat(&x.to_le_bytes())
            }
            Value::I64(x) => {
                eat(&[2]);
                eat(&x.to_le_bytes())
            }
            Value::F64(x) => {
                eat(&[3]);
                eat(&x.to_bits().to_le_bytes())
            }
            Value::Str(s) => {
                eat(&[4]);
                eat(&(s.len() as u32).to_le_bytes());
                eat(s.as_bytes())
            }
            Value::Bytes(b) => {
                eat(&[5]);
                eat(&(b.len() as u32).to_le_bytes());
                eat(b)
            }
            Value::Bool(b) => eat(&[6, *b as u8]),
        }
    }
    h ^= h >> 32;
    h.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Tables whose digests a full mark records. Every NewOrder, Payment and
/// Delivery writes at least one of them; `orders`, `order_line`, `stock` and
/// `history` are left out because scanning them would cost more than the
/// restart the digests check, and the stock-level answers read three of them.
pub const DIGEST_TABLES: [&str; 4] = ["warehouse", "district", "customer", "new_order"];
pub const CUSTOMER: usize = 2;

/// A quiesced point (no transaction in flight): the simulated time, the count
/// of transactions finished by then, and the live answers at that moment.
pub struct Mark {
    pub at: Timestamp,
    pub txns: u64,
    /// StockLevel of districts `1..=MARK_DISTRICTS` of warehouse 1.
    pub stock: Vec<usize>,
    /// Digests of `DIGEST_TABLES`. A light mark, taken by a terminal in the
    /// middle of its batch, does without: only stock levels are asked of it.
    pub tables: Option<[Digest; DIGEST_TABLES.len()]>,
}

pub fn read_txn<R>(db: &Database, f: impl FnOnce(&Txn) -> Result<R>) -> Result<R> {
    let txn = db.begin();
    let r = f(&txn);
    // read-only: commit writes nothing, it only releases the locks
    db.commit(txn)?;
    r
}

pub fn digest_tables(db: &Database) -> Result<[Digest; DIGEST_TABLES.len()]> {
    let mut out = [Digest::default(); DIGEST_TABLES.len()];
    for (slot, table) in out.iter_mut().zip(DIGEST_TABLES) {
        *slot = Digest::of(&read_txn(db, |t| db.scan_all(t, table))?);
    }
    Ok(out)
}

pub fn take_mark(db: &Database, finished: u64, light: bool) -> Result<Mark> {
    let stock = (1..=spec::MARK_DISTRICTS)
        .map(|d| {
            read_txn(db, |t| {
                tpcc::stock_level(db, t, 1, d, spec::STOCK_THRESHOLD)
            })
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(Mark {
        at: db.clock().now(),
        txns: finished,
        stock,
        tables: if light {
            None
        } else {
            Some(digest_tables(db)?)
        },
    })
}

/// The marks, shared between the script and the as-of looper.
#[derive(Default)]
pub struct Marks(Mutex<Vec<Arc<Mark>>>);

impl Marks {
    pub fn push(&self, mut mark: Mark, corrupt: bool) {
        if corrupt {
            for s in &mut mark.stock {
                *s += 1;
            }
            if let Some(t) = &mut mark.tables {
                t[CUSTOMER].sum ^= 1;
            }
        }
        let mut marks = self.0.lock().expect("marks lock poisoned");
        // Marks further back than any step looks are dropped, well inside the
        // retention period so that no step ever asks for truncated log.
        let horizon = mark.txns.saturating_sub(spec::RETENTION_TXNS - 500);
        marks.retain(|m| m.txns >= horizon);
        marks.push(Arc::new(mark));
    }

    pub fn newest(&self) -> Option<Arc<Mark>> {
        self.0.lock().expect("marks lock poisoned").last().cloned()
    }

    /// Simulated time of the mark nearest `back` transactions before `now`.
    pub fn time_nearest(&self, now: u64, back: u64) -> Option<Timestamp> {
        self.nearest(now, back, false).map(|m| m.at)
    }

    /// The mark nearest `back` transactions before `now`; `digests` leaves
    /// the light ones out.
    pub fn nearest(&self, now: u64, back: u64, digests: bool) -> Option<Arc<Mark>> {
        let target = now.saturating_sub(back);
        self.0
            .lock()
            .expect("marks lock poisoned")
            .iter()
            .filter(|m| m.txns < now && (!digests || m.tables.is_some()))
            .min_by_key(|m| m.txns.abs_diff(target))
            .cloned()
    }
}
