//! `lock-across-io`: no lock guard lives across a media call.
//!
//! The buffer pool never holds its page-table lock across a miss fill,
//! and the log writer mutex never covers a physical flush — the
//! difference between "fast path stalls behind one disk" and not. This
//! lint makes the rule structural.
//!
//! Heuristic, deliberately simple and brace-scoped:
//!
//! * A **guard acquisition** is a `let` statement whose initializer ends
//!   in a no-argument `.lock()` / `.read()` / `.write()` / `try_*` /
//!   `.upgradable_read()` call. (`file.read(&mut buf)` has arguments and
//!   is not a guard; a temporary like `self.map.read().get(k)` dies at
//!   the statement's end and is never tracked.)
//! * The guard is **live** until its enclosing brace block closes or an
//!   explicit `drop(<guard>)` of its binding is seen.
//! * A **media call** is a method call of `read_page` / `read_page_seq` /
//!   `write_page` / `write_page_seq` / `flush` / `flush_to` /
//!   `flush_up_to` / `sync` / `sync_all` / `sync_data`, or any mention of
//!   `FileManager`.
//!
//! A media call while any guard is live is a finding. Leaf wrappers that
//! *are* the I/O serialization point (the file manager's own handle
//! mutex) take an explained `// tidy: allow(lock-across-io) -- …`.

use super::{next_code, prev_code};
use crate::lexer::TokKind;
use crate::report::Finding;
use crate::walk::FileCtx;

const GUARD_METHODS: &[&str] = &[
    "lock",
    "read",
    "write",
    "try_lock",
    "try_read",
    "try_write",
    "upgradable_read",
];

const IO_CALLS: &[&str] = &[
    "read_page",
    "read_page_seq",
    "read_pages",
    "write_page",
    "write_page_seq",
    "write_pages",
    "flush",
    "flush_to",
    "flush_up_to",
    "sync",
    "sync_all",
    "sync_data",
];

struct Guard {
    /// Binding name (`_` or unknown patterns track scope only).
    name: Option<String>,
    method: String,
    line: u32,
    /// Brace depth at the `let`; the guard dies when depth drops below.
    depth: usize,
}

pub fn check(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let code: Vec<usize> = (0..ctx.tokens.len()).filter(|&i| ctx.is_code(i)).collect();
    let mut depth = 0usize;
    let mut guards: Vec<Guard> = Vec::new();
    let mut k = 0usize;
    while k < code.len() {
        let i = code[k];
        let text = ctx.text(i);
        match text {
            "{" => depth += 1,
            "}" => {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth);
            }
            "let" => {
                if let Some((name, method, line, stmt_end)) = guard_binding(ctx, &code, k) {
                    guards.push(Guard {
                        name,
                        method,
                        line,
                        depth,
                    });
                    k = stmt_end;
                    continue;
                }
            }
            "drop" => {
                // `drop(name)` explicitly ends a guard's life.
                if let Some(n1) = next_code(ctx, i) {
                    if ctx.text(n1) == "(" {
                        if let Some(n2) = next_code(ctx, n1) {
                            let name = ctx.text(n2).to_string();
                            if next_code(ctx, n2).is_some_and(|n3| ctx.text(n3) == ")") {
                                guards.retain(|g| g.name.as_deref() != Some(name.as_str()));
                            }
                        }
                    }
                }
            }
            "FileManager" if ctx.tokens[i].kind == TokKind::Ident => {
                if let Some(g) = guards.last() {
                    out.push(finding(ctx, ctx.tokens[i].line, "FileManager use", g));
                }
            }
            _ if ctx.tokens[i].kind == TokKind::Ident && IO_CALLS.contains(&text) => {
                let dotted = prev_code(ctx, i).is_some_and(|p| ctx.text(p) == ".");
                let called = next_code(ctx, i).is_some_and(|n| ctx.text(n) == "(");
                if dotted && called {
                    if let Some(g) = guards.last() {
                        out.push(finding(ctx, ctx.tokens[i].line, &format!("`.{text}()`"), g));
                    }
                }
            }
            _ => {}
        }
        k += 1;
    }
}

fn finding(ctx: &FileCtx, line: u32, what: &str, g: &Guard) -> Finding {
    let name = g.name.as_deref().unwrap_or("_");
    Finding::new(
        "lock-across-io",
        ctx,
        line,
        format!(
            "{what} while guard `{name}` (`.{}()` at line {}) is live — \
             release the lock before media I/O, or justify with \
             `// tidy: allow(lock-across-io) -- <why this lock must cover the I/O>`",
            g.method, g.line
        ),
    )
}

/// If the `let` statement starting at `code[k]` binds a lock guard,
/// return `(binding name, guard method, line, index in `code` one past
/// the statement's `;`)`.
fn guard_binding(
    ctx: &FileCtx,
    code: &[usize],
    k: usize,
) -> Option<(Option<String>, String, u32, usize)> {
    let let_tok = code[k];
    let line = ctx.tokens[let_tok].line;
    // Binding name: `let name` or `let mut name`; anything fancier
    // (tuples, refs) tracks scope without a name.
    let mut idx = k + 1;
    let mut name = None;
    if idx < code.len() && ctx.text(code[idx]) == "mut" {
        idx += 1;
    }
    if idx < code.len() && ctx.tokens[code[idx]].kind == TokKind::Ident {
        name = Some(ctx.text(code[idx]).to_string());
    }
    // Scan the statement to its terminating `;` (depth-0 relative to the
    // statement; initializers with blocks, e.g. match, are tracked).
    let mut j = k + 1;
    let mut nest = 0isize;
    let mut end = None;
    while j < code.len() {
        match ctx.text(code[j]) {
            "(" | "[" | "{" => nest += 1,
            ")" | "]" | "}" => {
                nest -= 1;
                if nest < 0 {
                    return None; // malformed / not a statement
                }
            }
            ";" if nest == 0 => {
                end = Some(j);
                break;
            }
            _ => {}
        }
        j += 1;
    }
    let end = end?;
    // Guard shape: the initializer *ends* with `. <guard-method> ( )`,
    // optionally `?`-propagated. A chained temporary
    // (`self.map.read().len()`) releases at the `;` and is not a guard.
    let mut e = end.checked_sub(1)?;
    if ctx.text(code[e]) == "?" {
        e = e.checked_sub(1)?;
    }
    if e < k + 4 || ctx.text(code[e]) != ")" || ctx.text(code[e - 1]) != "(" {
        return None;
    }
    let m = code[e - 2];
    let dotted = ctx.text(code[e - 3]) == ".";
    if dotted && ctx.tokens[m].kind == TokKind::Ident && GUARD_METHODS.contains(&ctx.text(m)) {
        Some((name, ctx.text(m).to_string(), line, end + 1))
    } else {
        None
    }
}
