//! `one-chain`: a transaction record's `prev_lsn` comes from the log.
//!
//! The log owns each transaction's chain (`rewind_wal::TxnChain`): its
//! chained appends read a record's `prev_lsn` from the chain and publish
//! the record's LSN under the writer mutex, which is what keeps a fuzzy
//! checkpoint's transaction table in agreement with the log. Library code
//! outside `crates/wal` that copies a `last_lsn` into a `prev_lsn` reads
//! the chain outside that mutex — the window in which a checkpoint once
//! listed a committed transaction as a loser. So in non-test library code
//! outside `crates/wal`, a `prev_lsn: …` field or a `prev_lsn = …`
//! assignment whose value names `last_lsn` is a finding.

use super::next_code;
use crate::lexer::TokKind;
use crate::report::Finding;
use crate::walk::{CrateKind, FileCtx};

pub fn check(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if ctx.kind != CrateKind::Library || ctx.path.starts_with("crates/wal/") {
        return;
    }
    for i in 0..ctx.tokens.len() {
        if !ctx.is_code(i) || ctx.tokens[i].kind != TokKind::Ident || ctx.text(i) != "prev_lsn" {
            continue;
        }
        // `prev_lsn:` or `prev_lsn =`, not a path (`::`) or a test (`==`).
        let Some(op) = next_code(ctx, i).filter(|&n| matches!(ctx.text(n), ":" | "=")) else {
            continue;
        };
        if next_code(ctx, op).is_some_and(|n| ctx.text(n) == ctx.text(op)) {
            continue;
        }
        // The value runs to the `,`, `;` or closing bracket that ends it.
        let mut depth = 0u32;
        let mut j = op;
        while let Some(n) = next_code(ctx, j) {
            match ctx.text(n) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" if depth == 0 => break,
                ")" | "]" | "}" => depth -= 1,
                "," | ";" if depth == 0 => break,
                "last_lsn" => {
                    out.push(Finding::new(
                        "one-chain",
                        ctx,
                        ctx.tokens[i].line,
                        "`prev_lsn` copied from a `last_lsn` outside the log — append \
                         the record onto its `TxnChain` (`append_batch` / \
                         `append_stamped`), which sets `prev_lsn` under the writer mutex"
                            .to_string(),
                    ));
                    break;
                }
                _ => {}
            }
            j = n;
        }
    }
}
