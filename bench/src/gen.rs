//! Input generators. The seed reaches nothing else: the engine only ever sees
//! the transaction inputs and district choices made here.

use rewind_tpcc::schema::last_name;
use rewind_tpcc::{NewOrderLine, TpccScale};

/// SplitMix64. Kept here, not taken from the workspace's `rand` shim, so a
/// change to the shim cannot change the benchmark's inputs between two
/// commits that are being compared.
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `lane` (a terminal, the as-of looper, ...).
    pub fn fork(seed: u64, lane: u64) -> Rng {
        let mut r = Rng(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-40 for every
    /// `n` used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The five TPC-C transaction types, in the order every per-type array uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnKind {
    NewOrder = 0,
    Payment = 1,
    OrderStatus = 2,
    Delivery = 3,
    StockLevel = 4,
}

pub const TXN_KINDS: usize = 5;

/// How Payment picks its customer.
pub enum Customer {
    Id(u64),
    LastName(String),
}

/// One generated transaction.
pub enum TxnInput {
    NewOrder {
        w: u64,
        d: u64,
        c: u64,
        lines: Vec<NewOrderLine>,
        /// The last line names an item that does not exist: the engine must
        /// roll the whole order back (TPC-C's 1 % rule).
        poisoned: bool,
    },
    Payment {
        w: u64,
        d: u64,
        customer: Customer,
        amount: f64,
    },
    OrderStatus {
        w: u64,
        d: u64,
        c: u64,
    },
    Delivery {
        w: u64,
        carrier: i64,
    },
    StockLevel {
        w: u64,
        d: u64,
        threshold: i64,
    },
}

impl TxnInput {
    pub fn kind(&self) -> TxnKind {
        match self {
            TxnInput::NewOrder { .. } => TxnKind::NewOrder,
            TxnInput::Payment { .. } => TxnKind::Payment,
            TxnInput::OrderStatus { .. } => TxnKind::OrderStatus,
            TxnInput::Delivery { .. } => TxnKind::Delivery,
            TxnInput::StockLevel { .. } => TxnKind::StockLevel,
        }
    }
}

/// A shuffled deck, dealt card by card and reshuffled when it runs out: every
/// full pass deals each card exactly once. The seed then decides the order of
/// the work and the rows it touches, but not how much of each kind there is,
/// so that runs with different seeds do the same amount of work.
struct Deck<T> {
    cards: Vec<T>,
    dealt: usize,
}

impl<T: Copy> Deck<T> {
    fn new(cards: Vec<T>) -> Deck<T> {
        let dealt = cards.len();
        Deck { cards, dealt }
    }

    fn deal(&mut self, rng: &mut Rng) -> T {
        if self.dealt == self.cards.len() {
            for i in (1..self.cards.len()).rev() {
                self.cards.swap(i, rng.below(i as u64 + 1) as usize);
            }
            self.dealt = 0;
        }
        self.dealt += 1;
        self.cards[self.dealt - 1]
    }
}

/// One terminal's stream of the standard mix: of every 100 transactions 45
/// are NewOrders, 43 Payments and 4 each OrderStatus, Delivery and
/// StockLevel; of every 11 NewOrders one has 5 lines, one 6, ... one 15; of
/// every 100 NewOrders one is poisoned. `home` pins the terminal to a
/// warehouse, as TPC-C does, so that two terminals do not serialise on one
/// warehouse row; a lone terminal (`home == None`) spreads over all
/// warehouses.
pub struct TxnStream {
    rng: Rng,
    scale: TpccScale,
    home: Option<u64>,
    kinds: Deck<TxnKind>,
    line_counts: Deck<usize>,
    poison: Deck<bool>,
}

impl TxnStream {
    pub fn new(seed: u64, lane: u64, scale: TpccScale, home: Option<u64>) -> TxnStream {
        use TxnKind::*;
        let mix = [
            (NewOrder, 45),
            (Payment, 43),
            (OrderStatus, 4),
            (Delivery, 4),
            (StockLevel, 4),
        ];
        TxnStream {
            rng: Rng::fork(seed, lane),
            scale,
            home,
            kinds: Deck::new(
                mix.iter()
                    .flat_map(|&(kind, share)| std::iter::repeat_n(kind, share))
                    .collect(),
            ),
            line_counts: Deck::new((5..=15).collect()),
            poison: Deck::new((0..100).map(|i| i == 0).collect()),
        }
    }

    pub fn next_txn(&mut self) -> TxnInput {
        let (rng, s) = (&mut self.rng, &self.scale);
        let w = self.home.unwrap_or_else(|| 1 + rng.below(s.warehouses));
        let d = 1 + rng.below(s.districts_per_warehouse);
        let c = 1 + rng.below(s.customers_per_district);
        let kind = self.kinds.deal(rng);
        if kind == TxnKind::NewOrder {
            let n_lines = self.line_counts.deal(rng);
            let poisoned = self.poison.deal(rng);
            let mut lines = Vec::with_capacity(n_lines);
            for i in 0..n_lines {
                let item_id = if poisoned && i == n_lines - 1 {
                    u64::MAX
                } else {
                    1 + rng.below(s.items)
                };
                let supply_w_id = if s.warehouses > 1 && rng.below(100) < 1 {
                    1 + rng.below(s.warehouses)
                } else {
                    w
                };
                lines.push(NewOrderLine {
                    item_id,
                    supply_w_id,
                    quantity: 1 + rng.below(10) as i64,
                });
            }
            TxnInput::NewOrder {
                w,
                d,
                c,
                lines,
                poisoned,
            }
        } else if kind == TxnKind::Payment {
            let customer = if rng.below(100) < 60 {
                Customer::LastName(last_name(rng.below(s.customers_per_district)))
            } else {
                Customer::Id(c)
            };
            TxnInput::Payment {
                w,
                d,
                customer,
                amount: 1.0 + rng.below(5000) as f64 / 100.0,
            }
        } else if kind == TxnKind::OrderStatus {
            TxnInput::OrderStatus { w, d, c }
        } else if kind == TxnKind::Delivery {
            TxnInput::Delivery {
                w,
                carrier: 1 + rng.below(10) as i64,
            }
        } else {
            TxnInput::StockLevel {
                w,
                d,
                threshold: 10 + rng.below(11) as i64,
            }
        }
    }

    pub fn batch(&mut self, n: usize) -> Vec<TxnInput> {
        (0..n).map(|_| self.next_txn()).collect()
    }
}
