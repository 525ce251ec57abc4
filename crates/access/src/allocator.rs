//! The allocation manager.
//!
//! Page allocation state lives in allocation-map pages (see
//! [`rewind_pagestore::alloc`]) and every change to it is logged as a
//! regular page modification, so allocation state is unwound by the same
//! physical undo as everything else (paper §3).
//!
//! The paper's §4.2-1 protocol is implemented here:
//!
//! * first allocation of a virgin page (ever-allocated bit clear) logs only
//!   the map change and a `Format` — "this eliminates unnecessary logging
//!   during the initial data loading";
//! * *re*-allocation of a previously used page first reads the page's old
//!   content (the possible extra I/O the paper accepts) and logs a
//!   `Preformat` record carrying that image, splicing the page's old chain
//!   onto its new one;
//! * deallocation touches only the map — the page's content is deliberately
//!   left in place so as-of queries can still unwind to it.

use crate::store::{ModKind, Store};
use rewind_common::{Error, ObjectId, PageId, Result};
use rewind_pagestore::alloc::{
    bit_index, find_free, get_state, is_map_page, map_page_for, region_base, PageState, REGION_SIZE,
};
use rewind_pagestore::PageType;
use rewind_wal::LogPayloadView;

/// Maximum number of allocation regions to search (bounds the database at
/// `MAX_REGIONS * REGION_SIZE` pages ≈ 16 GiB with 8 KiB pages).
pub const MAX_REGIONS: u64 = 64;

/// Ensure the allocation-map page for region `r` is formatted; returns its
/// page id.
fn ensure_map<S: Store>(s: &S, r: u64, kind: ModKind) -> Result<PageId> {
    let map_pid = if r == 0 {
        PageId(1)
    } else {
        PageId(r * REGION_SIZE)
    };
    let formatted = s.with_page(map_pid, |p| Ok(p.page_type() == PageType::AllocMap))?;
    if !formatted {
        s.modify(
            map_pid,
            LogPayloadView::Format {
                object: ObjectId::NONE,
                ty: PageType::AllocMap,
                level: 0,
                next: PageId::INVALID,
                prev: PageId::INVALID,
            },
            kind,
        )?;
        let perm = PageState {
            allocated: true,
            ever_allocated: true,
        }
        .to_bits();
        if r == 0 {
            // boot page + the map itself
            s.modify(
                map_pid,
                LogPayloadView::AllocSet {
                    index: 0,
                    old: 0,
                    new: perm,
                },
                kind,
            )?;
            s.modify(
                map_pid,
                LogPayloadView::AllocSet {
                    index: 1,
                    old: 0,
                    new: perm,
                },
                kind,
            )?;
        } else {
            s.modify(
                map_pid,
                LogPayloadView::AllocSet {
                    index: 0,
                    old: 0,
                    new: perm,
                },
                kind,
            )?;
        }
    }
    Ok(map_pid)
}

/// Allocate a page and format it for `object`.
///
/// `kind` attributes the log records: [`ModKind::Smo`] inside structure
/// modifications, [`ModKind::User`] for directly compensable allocations
/// (e.g. CREATE TABLE roots).
pub fn allocate_page<S: Store>(
    s: &S,
    object: ObjectId,
    ty: PageType,
    level: u16,
    next: PageId,
    prev: PageId,
    kind: ModKind,
) -> Result<PageId> {
    for r in 0..MAX_REGIONS {
        let map_pid = ensure_map(s, r, kind)?;
        let found = s.with_page(map_pid, |p| match find_free(p, 0) {
            Some(idx) => Ok(Some((idx, get_state(p, idx)?))),
            None => Ok(None),
        })?;
        let (idx, st) = match found {
            Some(x) => x,
            None => continue,
        };
        let pid = PageId(region_base(map_pid) + idx as u64);
        // mark allocated (keeps / sets the ever bit)
        s.modify(
            map_pid,
            LogPayloadView::AllocSet {
                index: idx as u32,
                old: st.to_bits(),
                new: PageState {
                    allocated: true,
                    ever_allocated: true,
                }
                .to_bits(),
            },
            kind,
        )?;
        if st.ever_allocated {
            // Re-allocation: splice the old chain with a preformat record
            // carrying the previous content (paper §4.2-1, Fig. 2). Reading
            // the old content may cost an I/O — the accepted trade-off.
            let prev_image = s.with_page(pid, |p| Ok(Box::new(*p.image())))?;
            s.modify(
                pid,
                LogPayloadView::Preformat {
                    prev_image: &prev_image,
                },
                kind,
            )?;
        }
        s.modify(
            pid,
            LogPayloadView::Format {
                object,
                ty,
                level,
                next,
                prev,
            },
            kind,
        )?;
        return Ok(pid);
    }
    Err(Error::Internal(
        "allocation failed: all regions full".into(),
    ))
}

/// Deallocate `pid`: clear its allocated bit, keep the ever-allocated bit,
/// and leave the page content untouched.
pub fn free_page<S: Store>(s: &S, pid: PageId, kind: ModKind) -> Result<()> {
    if is_map_page(pid) || pid == PageId::BOOT {
        return Err(Error::InvalidArg(format!(
            "cannot free metadata page {pid:?}"
        )));
    }
    let map_pid = map_page_for(pid);
    let idx = bit_index(pid);
    let st = s.with_page(map_pid, |p| get_state(p, idx))?;
    if !st.allocated {
        return Err(Error::InvalidArg(format!("double free of {pid:?}")));
    }
    s.modify(
        map_pid,
        LogPayloadView::AllocSet {
            index: idx as u32,
            old: st.to_bits(),
            new: PageState {
                allocated: false,
                ever_allocated: true,
            }
            .to_bits(),
        },
        kind,
    )?;
    Ok(())
}

/// Whether `pid` is currently allocated.
pub fn is_allocated<S: Store>(s: &S, pid: PageId) -> Result<bool> {
    if pid == PageId::BOOT || is_map_page(pid) {
        return Ok(true);
    }
    let map_pid = map_page_for(pid);
    let formatted = s.with_page(map_pid, |p| Ok(p.page_type() == PageType::AllocMap))?;
    if !formatted {
        return Ok(false);
    }
    Ok(s.with_page(map_pid, |p| get_state(p, bit_index(pid)))?
        .allocated)
}

/// Count allocated pages across all formatted regions (diagnostics; as-of
/// snapshots report their rewound allocation count with the same code).
pub fn allocated_count<S: Store>(s: &S) -> Result<usize> {
    let mut total = 0usize;
    for r in 0..MAX_REGIONS {
        let map_pid = if r == 0 {
            PageId(1)
        } else {
            PageId(r * REGION_SIZE)
        };
        let n = s.with_page(map_pid, |p| {
            Ok(if p.page_type() == PageType::AllocMap {
                Some(rewind_pagestore::alloc::count_allocated(p))
            } else {
                None
            })
        });
        match n {
            Ok(Some(n)) => total += n,
            Ok(None) | Err(_) => break,
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    /// MemStore-based harness: note MemStore's own `allocate` is naive; these
    /// tests drive the real allocator functions through `modify`.
    fn setup() -> MemStore {
        MemStore::new(8)
    }

    fn alloc(s: &MemStore, obj: u64) -> PageId {
        allocate_page(
            s,
            ObjectId(obj),
            PageType::BTreeLeaf,
            0,
            PageId::INVALID,
            PageId::INVALID,
            ModKind::User,
        )
        .unwrap()
    }

    #[test]
    fn first_allocations_skip_boot_and_map() {
        let s = setup();
        let a = alloc(&s, 1);
        let b = alloc(&s, 1);
        assert_eq!(a, PageId(2), "page 0 is boot, page 1 is the map");
        assert_eq!(b, PageId(3));
        assert!(is_allocated(&s, a).unwrap());
        assert!(is_allocated(&s, PageId(1)).unwrap());
        assert!(is_allocated(&s, PageId::BOOT).unwrap());
        assert!(!is_allocated(&s, PageId(9)).unwrap());
        assert_eq!(allocated_count(&s).unwrap(), 4); // boot, map, a, b
    }

    #[test]
    fn formats_the_target_page() {
        let s = setup();
        let pid = alloc(&s, 5);
        s.with_page(pid, |p| {
            assert_eq!(p.page_type(), PageType::BTreeLeaf);
            assert_eq!(p.object_id(), ObjectId(5));
            assert_eq!(p.page_id(), pid);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn free_then_reallocate_sets_ever_bit_semantics() {
        let s = setup();
        let a = alloc(&s, 1);
        // write something memorable, then free
        s.modify(
            a,
            LogPayloadView::InsertRecord {
                slot: 0,
                bytes: b"old-life",
            },
            ModKind::User,
        )
        .unwrap();
        free_page(&s, a, ModKind::User).unwrap();
        assert!(!is_allocated(&s, a).unwrap());
        // content untouched by deallocation (the paper depends on this)
        s.with_page(a, |p| {
            assert_eq!(p.record(0).unwrap(), b"old-life");
            Ok(())
        })
        .unwrap();
        // re-allocate: lowest free bit is `a` again
        let b = alloc(&s, 2);
        assert_eq!(b, a);
        s.with_page(b, |p| {
            assert_eq!(p.object_id(), ObjectId(2));
            assert_eq!(p.slot_count(), 0);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn double_free_and_metadata_free_rejected() {
        let s = setup();
        let a = alloc(&s, 1);
        free_page(&s, a, ModKind::User).unwrap();
        assert!(free_page(&s, a, ModKind::User).is_err());
        assert!(free_page(&s, PageId::BOOT, ModKind::User).is_err());
        assert!(free_page(&s, PageId(1), ModKind::User).is_err());
    }
}
