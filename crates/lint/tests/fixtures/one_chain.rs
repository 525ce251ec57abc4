// Fixture: transaction records chained outside the log.
// Expected: exactly 3 `one-chain` findings (lines 8, 15, 18) in library
// code outside crates/wal; none inside it.

fn commit(shared: &TxnShared) -> LogRecord {
    LogRecord {
        txn: shared.id,
        prev_lsn: shared.last_lsn(),
        payload: Commit { at },
    }
}

fn reposition(rec: &mut LogRecord, txn: &TxnShared, other: Lsn) {
    // Nested values and assignments count too.
    rec.prev_lsn =
        max(other, txn.chain.last_lsn());
    let r = LogRecord {
        prev_lsn: Lsn(txn
            .last_lsn().0),
    };
}

// Not copies: a type, a null, a read, a test, a path, a neighbouring field.
struct Header {
    prev_lsn: Lsn,
}
fn fine(h: &Header, t: &TxnShared) -> bool {
    let r = LogRecord { prev_lsn: Lsn::NULL, last: t.last_lsn() };
    let undo_next = h.prev_lsn;
    let _ = prev_lsn::NAME;
    h.prev_lsn == t.last_lsn()
}
// A mention in a comment: prev_lsn: x.last_lsn()
const DOC: &str = "prev_lsn: shared.last_lsn()";
#[cfg(test)] mod tests { fn hand_built(t: &T) { let r = R { prev_lsn: t.last_lsn() }; } }
