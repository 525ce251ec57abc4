//! `no-panic`: library code never panics.
//!
//! The media-hardening invariant (ROADMAP, PR 6) is that damage surfaces
//! as typed `Error::Corruption`, *never* a panic — and the multicore
//! recovery work ahead will run this code on worker threads where a panic
//! poisons nothing visible and simply loses the database. This lint makes
//! the invariant structural: in non-test library code,
//!
//! * `.unwrap()` / `.expect(…)` method calls,
//! * `panic!` / `unreachable!` / `todo!` / `unimplemented!` macros,
//! * `assert!` / `assert_eq!` / `assert_ne!` macros
//!
//! are findings. `debug_assert*` lexes as a different ident and stays
//! allowed: it states an invariant without panicking a release build.
//! Provably-infallible sites (a `try_into` on a slice whose length the
//! previous line pinned) take an explained
//! `// tidy: allow(no-panic) -- <proof>`.
//!
//! Tool crates (`bench`) are exempt: a benchmark's top level may unwrap.

use super::{next_code, prev_code};
use crate::lexer::TokKind;
use crate::report::Finding;
use crate::walk::{CrateKind, FileCtx};

const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

pub fn check(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if ctx.kind != CrateKind::Library {
        return;
    }
    for i in 0..ctx.tokens.len() {
        if !ctx.is_code(i) || ctx.tokens[i].kind != TokKind::Ident {
            continue;
        }
        let text = ctx.text(i);
        let line = ctx.tokens[i].line;
        match text {
            "unwrap" | "expect" => {
                // Method-call shape only: `.unwrap(` / `.expect(`.
                // (`unwrap_or`/`expect_err` lex as distinct idents, and
                // `#[expect(…)]` attributes lack the leading dot.)
                let dotted = prev_code(ctx, i).is_some_and(|p| ctx.text(p) == ".");
                let called = next_code(ctx, i).is_some_and(|n| ctx.text(n) == "(");
                if dotted && called {
                    out.push(Finding::new(
                        "no-panic",
                        ctx,
                        line,
                        format!(
                            "`.{text}()` in library code — return a typed \
                             `rewind_common::Error` (or justify with \
                             `// tidy: allow(no-panic) -- <why infallible>`)"
                        ),
                    ));
                }
            }
            _ if PANIC_MACROS.contains(&text)
                && next_code(ctx, i).is_some_and(|n| ctx.text(n) == "!") =>
            {
                out.push(Finding::new(
                    "no-panic",
                    ctx,
                    line,
                    format!(
                        "`{text}!` in library code — bad input and \
                         impossible states surface as `Error::InvalidArg`/\
                         `Error::Corruption`/`Error::Internal`, never a panic"
                    ),
                ));
            }
            _ => {}
        }
    }
}
