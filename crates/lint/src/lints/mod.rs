//! The lint registry.
//!
//! Every lint is a pure function over lexed token streams — per-file
//! lints see one [`FileCtx`], global lints see the whole workspace (the
//! lock-order graph and the obs counter cross-check need every file).
//!
//! To add a lint:
//!
//! 1. write `fn check(ctx: &FileCtx, out: &mut Vec<Finding>)` in a new
//!    module here (or extend `run_global` for cross-file invariants);
//! 2. register its name + summary in [`ALL`] and call it from
//!    [`run_file`]/[`run_global`];
//! 3. add violating + allowed fixture snippets under `tests/fixtures/`
//!    and exact-count assertions in `tests/lint_fixtures.rs`;
//! 4. document it in the README lint catalog.

pub mod counter_drift;
pub mod hygiene;
pub mod lock_across_io;
pub mod lock_order;
pub mod no_panic;
pub mod one_allocator;
pub mod one_chain;
pub mod unsafe_audit;

use crate::lexer::TokKind;
use crate::report::{Finding, LockOrderFact};
use crate::walk::{CrateKind, FileCtx};

/// Name + one-line contract of every lint, as shown by `--list`.
pub const ALL: &[(&str, &str)] = &[
    (
        "no-panic",
        "library code never panics: no unwrap/expect/panic!/unreachable!/todo!/unimplemented! — corruption and I/O failure surface as typed errors",
    ),
    (
        "lock-across-io",
        "a lock/read/write guard binding must not live across a FileManager / read_page / write_page / flush / sync call",
    ),
    (
        "lock-order",
        "`tidy: lock-order(a < b)` acquisition facts must form a cycle-free global order",
    ),
    (
        "unsafe-audit",
        "every `unsafe` is immediately preceded by a `// SAFETY:` comment explaining why it is sound",
    ),
    (
        "wall-clock",
        "no std::time::Instant/SystemTime outside crates/obs and crates/bench — engine behaviour must not read the clock",
    ),
    (
        "output-hygiene",
        "no println!/eprintln!/print!/eprint!/dbg! in library crates — output goes through obs exposition",
    ),
    (
        "std-sync",
        "no std::sync::{Mutex,RwLock,Condvar} — the parking_lot shim is mandated (poison-free, upgradeable later)",
    ),
    (
        "one-allocator",
        "no `GlobalAlloc` impl outside crates/common — tests, benches and examples included; the shared per-thread counting allocator is the only one",
    ),
    (
        "one-chain",
        "outside crates/wal, library code never copies a `last_lsn` into a record's `prev_lsn` — transaction records append onto their `TxnChain`, which the log moves under its writer mutex",
    ),
    (
        "counter-drift",
        "every EventKind variant appears in from_u64 and name(); every ObsInner histogram is exposed by MetricSource for Obs",
    ),
];

/// Run every per-file lint over one file.
pub fn run_file(ctx: &FileCtx, out: &mut Vec<Finding>) {
    one_allocator::check(ctx, out);
    if ctx.kind == CrateKind::Test {
        return;
    }
    no_panic::check(ctx, out);
    lock_across_io::check(ctx, out);
    unsafe_audit::check(ctx, out);
    hygiene::check(ctx, out);
    one_chain::check(ctx, out);
}

/// Run every cross-file lint.
pub fn run_global(files: &[FileCtx], facts: &[LockOrderFact], out: &mut Vec<Finding>) {
    lock_order::check(facts, out);
    counter_drift::check(files, out);
}

/// Index of the previous non-comment token before `i`, if any.
pub(crate) fn prev_code(ctx: &FileCtx, i: usize) -> Option<usize> {
    (0..i).rev().find(|&j| {
        !matches!(
            ctx.tokens[j].kind,
            TokKind::LineComment | TokKind::BlockComment
        )
    })
}

/// Index of the next non-comment token after `i`, if any.
pub(crate) fn next_code(ctx: &FileCtx, i: usize) -> Option<usize> {
    (i + 1..ctx.tokens.len()).find(|&j| {
        !matches!(
            ctx.tokens[j].kind,
            TokKind::LineComment | TokKind::BlockComment
        )
    })
}
