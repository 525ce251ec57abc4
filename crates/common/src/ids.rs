//! Strongly-typed identifiers used across the engine.
//!
//! All identifiers are thin newtypes over integers with explicit sentinel
//! values, so that "no LSN" or "no page" can never be confused with a real
//! one by accident.

use std::fmt;

/// A log sequence number.
///
/// As in SQL Server, an [`Lsn`] is a *byte offset into the virtual log
/// stream*: record ordering, "amount of log between two points" and log-space
/// accounting all fall out of plain integer arithmetic. The null LSN (`0`)
/// sorts before every real record; real records start at offset
/// [`Lsn::FIRST`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lsn(pub u64);

impl Lsn {
    /// The null LSN: "no record". Per-page and per-transaction chains are
    /// terminated with this value.
    pub const NULL: Lsn = Lsn(0);
    /// Offset of the first record ever written to a log stream.
    pub const FIRST: Lsn = Lsn(8);
    /// Largest representable LSN; used as an "infinitely far in the future"
    /// bound when scanning.
    pub const MAX: Lsn = Lsn(u64::MAX);

    /// Whether this is the null LSN.
    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    /// Whether this LSN refers to an actual record (i.e. is not null).
    #[inline]
    pub fn is_valid(self) -> bool {
        self.0 != 0
    }

    /// Byte distance from `earlier` to `self`; saturates at zero.
    #[inline]
    pub fn bytes_since(self, earlier: Lsn) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// Exclusive scan end for a scan that must *include* a record starting
    /// at `self`: one past this LSN, saturating at [`Lsn::MAX`].
    ///
    /// Scan ranges in this engine are half-open `[from, to)`, so including
    /// a bound record means passing `bound.scan_end()`. The naive
    /// `Lsn(bound.0 + 1)` overflows to `Lsn::NULL` when the bound is
    /// `Lsn::MAX` (the "no bound" sentinel), turning an unbounded scan
    /// into an empty one; saturation keeps the sentinel meaning "to the
    /// end of the log".
    #[inline]
    pub fn scan_end(self) -> Lsn {
        Lsn(self.0.saturating_add(1))
    }
}

impl fmt::Debug for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_null() {
            write!(f, "Lsn(NULL)")
        } else {
            write!(f, "Lsn({})", self.0)
        }
    }
}

impl fmt::Display for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Identifier of an 8 KiB database page. Page ids are dense indexes into the
/// database file: page `n` lives at byte offset `n * PAGE_SIZE`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(pub u64);

impl PageId {
    /// Sentinel meaning "no page" (e.g. the right-sibling of the last leaf).
    pub const INVALID: PageId = PageId(u64::MAX);
    /// The boot page: fixed location of database-wide metadata.
    pub const BOOT: PageId = PageId(0);

    /// Whether this id refers to a real page.
    #[inline]
    pub fn is_valid(self) -> bool {
        self.0 != u64::MAX
    }
}

impl fmt::Debug for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_valid() {
            write!(f, "P{}", self.0)
        } else {
            write!(f, "P(INVALID)")
        }
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Identifier of a transaction. Ids are allocated monotonically by the
/// transaction manager and are never reused within the life of a database.
/// The default is [`TxnId::NONE`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TxnId(pub u64);

impl TxnId {
    /// Sentinel meaning "no transaction" (system-internal page writes).
    pub const NONE: TxnId = TxnId(0);

    /// Whether this id refers to a real transaction.
    #[inline]
    pub fn is_valid(self) -> bool {
        self.0 != 0
    }
}

impl fmt::Debug for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Identifier of a catalog object (table, index, or system table).
///
/// Object ids both name rows in the system catalog and tag every data page
/// with its owner, which is what lets the lock manager key row locks by
/// `(object, key)` and lets integrity checks catch stray pages.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u64);

impl ObjectId {
    /// Sentinel meaning "no object" (free pages, allocation maps).
    pub const NONE: ObjectId = ObjectId(0);
    /// The `sys_tables` system table.
    pub const SYS_TABLES: ObjectId = ObjectId(1);
    /// The `sys_columns` system table.
    pub const SYS_COLUMNS: ObjectId = ObjectId(2);
    /// The `sys_indexes` system table.
    pub const SYS_INDEXES: ObjectId = ObjectId(3);
    /// First id handed out to user objects.
    pub const FIRST_USER: ObjectId = ObjectId(100);

    /// Whether this is a system-catalog object.
    #[inline]
    pub fn is_system(self) -> bool {
        self.0 != 0 && self.0 < Self::FIRST_USER.0
    }
}

impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Obj{}", self.0)
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Index of a row slot within a slotted page.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SlotId(pub u16);

impl fmt::Display for SlotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lsn_ordering_and_sentinels() {
        assert!(Lsn::NULL < Lsn::FIRST);
        assert!(Lsn::FIRST < Lsn::MAX);
        assert!(Lsn::NULL.is_null());
        assert!(!Lsn::NULL.is_valid());
        assert!(Lsn(42).is_valid());
    }

    #[test]
    fn lsn_byte_distance() {
        assert_eq!(Lsn(100).bytes_since(Lsn(40)), 60);
        assert_eq!(Lsn(40).bytes_since(Lsn(100)), 0);
        assert_eq!(Lsn(40).bytes_since(Lsn::NULL), 40);
    }

    #[test]
    fn lsn_scan_end_saturates_at_max() {
        assert_eq!(Lsn(100).scan_end(), Lsn(101));
        // The "no bound" sentinel must stay a no-bound sentinel: +1 on
        // u64::MAX would wrap to 0 (= Lsn::NULL) and scan nothing.
        assert_eq!(Lsn::MAX.scan_end(), Lsn::MAX);
        assert_eq!(Lsn(u64::MAX - 1).scan_end(), Lsn::MAX);
    }

    #[test]
    fn page_id_sentinels() {
        assert!(!PageId::INVALID.is_valid());
        assert!(PageId::BOOT.is_valid());
        assert_eq!(format!("{}", PageId(7)), "P7");
    }

    #[test]
    fn txn_id_sentinels() {
        assert!(!TxnId::NONE.is_valid());
        assert!(TxnId(1).is_valid());
    }

    #[test]
    fn object_id_classes() {
        assert!(ObjectId::SYS_TABLES.is_system());
        assert!(ObjectId::SYS_INDEXES.is_system());
        assert!(!ObjectId::FIRST_USER.is_system());
        assert!(!ObjectId::NONE.is_system());
    }
}
