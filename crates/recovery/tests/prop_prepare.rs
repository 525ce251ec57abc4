//! Property test for the paper's core primitive: for an arbitrary logged
//! modification program over a page — including deallocation and
//! re-allocation (preformat chains) and optional full page images —
//! `PreparePageAsOf` must reconstruct every intermediate state exactly.

use proptest::prelude::*;
use rewind_common::{Lsn, ObjectId, PageId, TxnId};
use rewind_pagestore::{Page, PageType};
use rewind_recovery::prepare_page_as_of;
use rewind_wal::{LogConfig, LogManager, LogPayloadView, LogRecord};

#[derive(Clone, Debug)]
enum Op {
    Insert(u8, Vec<u8>),
    Delete(u8),
    Update(u8, Vec<u8>),
    /// Deallocate, then later re-allocate (drives the §4.2-1 preformat path).
    Recycle,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (any::<u8>(), proptest::collection::vec(any::<u8>(), 1..60)).prop_map(|(s, b)| Op::Insert(s, b)),
        2 => any::<u8>().prop_map(Op::Delete),
        2 => (any::<u8>(), proptest::collection::vec(any::<u8>(), 1..40)).prop_map(|(s, b)| Op::Update(s, b)),
        1 => Just(Op::Recycle),
    ]
}

struct Harness {
    log: LogManager,
    page: Page,
    pid: PageId,
    fpi_interval: u32,
    mods: u32,
    /// Every state the page has ever been in, with the LSN it held.
    history: Vec<(Lsn, Page)>,
}

impl Harness {
    fn new(fpi_interval: u32) -> Self {
        let pid = PageId(7);
        let mut h = Harness {
            log: LogManager::new(LogConfig::default()),
            page: Page::zeroed(),
            pid,
            fpi_interval,
            mods: 0,
            history: vec![(Lsn::NULL, Page::zeroed())],
        };
        h.format();
        h
    }

    fn append_inner(&mut self, payload: LogPayloadView<'_>, record_history: bool) {
        let rec = LogRecord {
            lsn: Lsn::NULL,
            txn: TxnId(1),
            prev_lsn: Lsn::NULL,
            page: self.pid,
            prev_page_lsn: self.page.page_lsn(),
            object: ObjectId(1),
            undo_next: Lsn::NULL,
            flags: 0,
            payload,
        };
        let lsn = self.log.append(&rec);
        rec.payload.redo(&mut self.page, self.pid, lsn).unwrap();
        if record_history {
            self.history.push((lsn, self.page.clone()));
        }
        if record_history
            && self.fpi_interval > 0
            && !matches!(rec.payload, LogPayloadView::FullPageImage { .. })
        {
            self.mods += 1;
            if self.mods >= self.fpi_interval {
                self.mods = 0;
                let image = Box::new(*self.page.image());
                let fpi = LogPayloadView::FullPageImage {
                    prev_fpi_lsn: self.page.last_fpi_lsn(),
                    image: &image,
                };
                self.append_inner(fpi, true);
            }
        }
    }

    fn append(&mut self, payload: LogPayloadView<'_>) {
        self.append_inner(payload, true);
    }

    fn format(&mut self) {
        self.append(LogPayloadView::Format {
            object: ObjectId(1),
            ty: PageType::BTreeLeaf,
            level: 0,
            next: PageId::INVALID,
            prev: PageId::INVALID,
        });
    }

    fn apply(&mut self, op: &Op) {
        let n = self.page.slot_count() as usize;
        match op {
            Op::Insert(slot, bytes) => {
                if !self.page.can_insert(bytes.len()) {
                    return;
                }
                let slot = (*slot as usize % (n + 1)) as u16;
                self.append(LogPayloadView::InsertRecord { slot, bytes });
            }
            Op::Delete(slot) => {
                if n == 0 {
                    return;
                }
                let slot = *slot as usize % n;
                let old = self.page.record(slot).unwrap().to_vec();
                self.append(LogPayloadView::DeleteRecord {
                    slot: slot as u16,
                    old: &old,
                });
            }
            Op::Update(slot, bytes) => {
                if n == 0 {
                    return;
                }
                let slot = *slot as usize % n;
                let old = self.page.record(slot).unwrap().to_vec();
                if bytes.len() > old.len() && bytes.len() - old.len() > self.page.free_space() {
                    return;
                }
                self.append(LogPayloadView::UpdateRecord {
                    slot: slot as u16,
                    old: &old,
                    new: bytes,
                });
            }
            Op::Recycle => {
                // Deallocation leaves content in place; re-allocation logs a
                // preformat with the previous image, then a fresh format.
                //
                // The instant *between* the two records is deliberately not
                // recorded as addressable history: the page is unreachable
                // (deallocated, not yet linked anywhere) at any SplitLSN that
                // could land there, so `PreparePageAsOf` semantics only need
                // to hold on either side of the pair.
                let prev = Box::new(*self.page.image());
                self.append_inner(LogPayloadView::Preformat { prev_image: &prev }, false);
                self.format();
            }
        }
    }
}

fn records_of(p: &Page) -> Vec<Vec<u8>> {
    p.records().map(|r| r.to_vec()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    #[test]
    fn prepare_reconstructs_every_state(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        fpi in prop_oneof![Just(0u32), Just(3u32), Just(9u32)],
    ) {
        let mut h = Harness::new(fpi);
        for op in &ops {
            h.apply(op);
        }
        // every recorded state must be reachable from the *final* page
        for (as_of, expect) in &h.history {
            let mut p = h.page.clone();
            prepare_page_as_of(&h.log, &mut p, h.pid, *as_of).unwrap();
            prop_assert_eq!(p.page_lsn(), expect.page_lsn(), "pageLSN at {}", as_of);
            prop_assert_eq!(records_of(&p), records_of(expect), "records at {}", as_of);
            prop_assert_eq!(p.page_type(), expect.page_type(), "type at {}", as_of);
            prop_assert_eq!(p.last_fpi_lsn(), expect.last_fpi_lsn(), "fpi anchor at {}", as_of);
        }
    }
}
