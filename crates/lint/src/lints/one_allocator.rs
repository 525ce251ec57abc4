//! `one-allocator`: exactly one `GlobalAlloc` impl, in `crates/common`.
//!
//! The allocation proofs (zero-alloc chain walks, zero-copy warm hits,
//! clones-per-hit) register `rewind_common::testalloc::CountingAllocator`,
//! which counts per thread so proofs sharing a test binary cannot count
//! each other. A private copy of the allocator silently loses that — the
//! copy this lint was written after counted process-wide and failed every
//! parallel test run. The rule is therefore structural: an
//! `impl … GlobalAlloc for …` anywhere outside `crates/common/` is a
//! finding, in engine, bench, test and example code alike (test files and
//! `#[cfg(test)]` items are exactly where the copies appear, so neither
//! exempts).

use super::next_code;
use crate::lexer::TokKind;
use crate::report::Finding;
use crate::walk::FileCtx;

pub fn check(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if ctx.path.starts_with("crates/common/") {
        return;
    }
    for (i, tok) in ctx.tokens.iter().enumerate() {
        if tok.kind == TokKind::Ident
            && ctx.text(i) == "GlobalAlloc"
            && next_code(ctx, i).is_some_and(|n| ctx.text(n) == "for")
        {
            out.push(Finding::new(
                "one-allocator",
                ctx,
                tok.line,
                "a `GlobalAlloc` impl outside crates/common — register \
                 `rewind_common::testalloc::CountingAllocator` (counted per \
                 thread) instead of a private copy"
                    .to_string(),
            ));
        }
    }
}
