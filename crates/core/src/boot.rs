//! The boot page (page 0): database-wide anchors.
//!
//! The boot page stores what everything else hangs off: the roots of the
//! three system-catalog B-Trees, the object-id allocator, and durable
//! configuration (FPI interval, retention period — the paper's
//! `UNDO_INTERVAL`, §4.3). All updates are logged `BootWrite` records, so
//! the boot page is unwound by the same physical undo as everything else —
//! an as-of snapshot sees the catalog roots *as of that time*.

use rewind_access::store::{ModKind, Store};
use rewind_common::{Error, Lsn, PageId, Result};
use rewind_pagestore::PageType;
use rewind_wal::LogPayloadView;

/// Magic bytes identifying a rewind database.
pub const MAGIC: &[u8; 8] = b"REWINDDB";
/// On-disk format version.
pub const VERSION: u32 = 1;

// Body offsets.
const OFF_MAGIC: usize = 0;
const OFF_VERSION: usize = 8;
const OFF_SYS_TABLES: usize = 12;
const OFF_SYS_COLUMNS: usize = 20;
const OFF_SYS_INDEXES: usize = 28;
const OFF_NEXT_OBJECT: usize = 36;
const OFF_FPI_INTERVAL: usize = 44;
const OFF_RETENTION: usize = 48;

/// Decoded boot-page contents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BootInfo {
    /// Root of `sys_tables`.
    pub sys_tables_root: PageId,
    /// Root of `sys_columns`.
    pub sys_columns_root: PageId,
    /// Root of `sys_indexes`.
    pub sys_indexes_root: PageId,
    /// Next object id to allocate.
    pub next_object_id: u64,
    /// Full-page-image interval N (§6.1), 0 = disabled.
    pub fpi_interval: u32,
    /// Retention period in microseconds (§4.3), 0 = retain everything.
    pub retention_micros: u64,
}

/// Read and validate the boot page through any [`Store`] (live database or
/// snapshot — an as-of snapshot reads the boot page *as of its SplitLSN*).
pub fn read_boot<S: Store>(s: &S) -> Result<BootInfo> {
    s.with_page(PageId::BOOT, |p| {
        if p.page_type() != PageType::Boot {
            return Err(Error::corruption("page 0 is not a boot page"));
        }
        let b = p.body();
        if &b[OFF_MAGIC..OFF_MAGIC + 8] != MAGIC {
            return Err(Error::corruption("bad boot magic"));
        }
        let version = rewind_common::codec::read_u32_at(b, OFF_VERSION);
        if version != VERSION {
            return Err(Error::corruption(format!(
                "unsupported format version {version}"
            )));
        }
        Ok(BootInfo {
            sys_tables_root: PageId(rewind_common::codec::read_u64_at(b, OFF_SYS_TABLES)),
            sys_columns_root: PageId(rewind_common::codec::read_u64_at(b, OFF_SYS_COLUMNS)),
            sys_indexes_root: PageId(rewind_common::codec::read_u64_at(b, OFF_SYS_INDEXES)),
            next_object_id: rewind_common::codec::read_u64_at(b, OFF_NEXT_OBJECT),
            fpi_interval: rewind_common::codec::read_u32_at(b, OFF_FPI_INTERVAL),
            retention_micros: rewind_common::codec::read_u64_at(b, OFF_RETENTION),
        })
    })
}

fn boot_write<S: Store>(s: &S, offset: usize, new: &[u8]) -> Result<Lsn> {
    let old = s.with_page(PageId::BOOT, |p| {
        Ok(p.body()[offset..offset + new.len()].to_vec())
    })?;
    s.modify(
        PageId::BOOT,
        LogPayloadView::BootWrite {
            offset: offset as u16,
            old: &old,
            new,
        },
        ModKind::User,
    )
}

/// Format page 0 as the boot page and write the initial anchors. Called once
/// at database creation, after the three system trees exist.
pub fn initialize_boot<S: Store>(s: &S, info: &BootInfo) -> Result<()> {
    s.modify(
        PageId::BOOT,
        LogPayloadView::Format {
            object: rewind_common::ObjectId::NONE,
            ty: PageType::Boot,
            level: 0,
            next: PageId::INVALID,
            prev: PageId::INVALID,
        },
        ModKind::User,
    )?;
    boot_write(s, OFF_MAGIC, MAGIC)?;
    boot_write(s, OFF_VERSION, &VERSION.to_le_bytes())?;
    boot_write(s, OFF_SYS_TABLES, &info.sys_tables_root.0.to_le_bytes())?;
    boot_write(s, OFF_SYS_COLUMNS, &info.sys_columns_root.0.to_le_bytes())?;
    boot_write(s, OFF_SYS_INDEXES, &info.sys_indexes_root.0.to_le_bytes())?;
    boot_write(s, OFF_NEXT_OBJECT, &info.next_object_id.to_le_bytes())?;
    boot_write(s, OFF_FPI_INTERVAL, &info.fpi_interval.to_le_bytes())?;
    boot_write(s, OFF_RETENTION, &info.retention_micros.to_le_bytes())?;
    Ok(())
}

/// Allocate the next object id (logged, transactional).
pub fn allocate_object_id<S: Store>(s: &S) -> Result<u64> {
    let cur = read_boot(s)?.next_object_id;
    boot_write(s, OFF_NEXT_OBJECT, &(cur + 1).to_le_bytes())?;
    Ok(cur)
}

/// Durably set the retention period (the paper's
/// `ALTER DATABASE ... SET UNDO_INTERVAL`, §4.3).
pub fn set_retention<S: Store>(s: &S, micros: u64) -> Result<()> {
    boot_write(s, OFF_RETENTION, &micros.to_le_bytes())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rewind_access::store::MemStore;

    /// Durably set the FPI interval (§6.1).
    fn set_fpi_interval<S: Store>(s: &S, n: u32) -> Result<()> {
        boot_write(s, OFF_FPI_INTERVAL, &n.to_le_bytes())?;
        Ok(())
    }

    #[test]
    fn initialize_read_roundtrip() {
        let s = MemStore::new(4);
        let info = BootInfo {
            sys_tables_root: PageId(2),
            sys_columns_root: PageId(3),
            sys_indexes_root: PageId(4),
            next_object_id: 100,
            fpi_interval: 16,
            retention_micros: 3_600_000_000,
        };
        initialize_boot(&s, &info).unwrap();
        assert_eq!(read_boot(&s).unwrap(), info);

        assert_eq!(allocate_object_id(&s).unwrap(), 100);
        assert_eq!(allocate_object_id(&s).unwrap(), 101);
        assert_eq!(read_boot(&s).unwrap().next_object_id, 102);

        set_retention(&s, 42).unwrap();
        set_fpi_interval(&s, 8).unwrap();
        let after = read_boot(&s).unwrap();
        assert_eq!(after.retention_micros, 42);
        assert_eq!(after.fpi_interval, 8);
    }

    #[test]
    fn unformatted_boot_rejected() {
        let s = MemStore::new(2);
        assert!(read_boot(&s).is_err());
    }
}
