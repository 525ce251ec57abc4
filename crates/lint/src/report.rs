//! Findings, `// tidy:` directives, and report rendering.
//!
//! ## Escape-comment syntax
//!
//! A lint finding is suppressed by an *explained* allow on the same line
//! or on the line directly above:
//!
//! ```text
//! // tidy: allow(no-panic) -- slice length proven by the loop bound above
//! let b = buf[..4].try_into().unwrap();
//! ```
//!
//! The reason after ` -- ` is mandatory: an allow without one is itself a
//! finding (`malformed-allow`), and an allow that suppresses nothing is an
//! `unused-allow` finding — stale escapes rot into lies, so the tool
//! refuses to carry them. Both meta-findings are unsuppressible.
//!
//! Lock-order facts use the same comment channel:
//!
//! ```text
//! // tidy: lock-order(pool_table < side_file) -- table lock taken first on the miss path
//! ```

use std::fmt::Write as _;

use crate::lexer::TokKind;
use crate::walk::FileCtx;

/// One lint violation (or meta-violation) at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Lint name as listed in the registry (`no-panic`, `lock-across-io`…).
    pub lint: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human message: what and why.
    pub message: String,
}

impl Finding {
    pub fn new(lint: &'static str, ctx: &FileCtx, line: u32, message: String) -> Finding {
        Finding {
            lint,
            path: ctx.path.clone(),
            line,
            message,
        }
    }
}

/// A parsed `// tidy: allow(<lint>) -- <reason>` directive.
#[derive(Debug, Clone)]
pub struct Allow {
    pub lint: String,
    pub reason: String,
    pub path: String,
    /// Line of the comment itself.
    pub line: u32,
    /// Set when a finding was suppressed by this allow.
    pub used: bool,
}

/// A parsed `// tidy: lock-order(<a> < <b>)` fact (a is acquired before b).
#[derive(Debug, Clone)]
pub struct LockOrderFact {
    pub first: String,
    pub then: String,
    pub path: String,
    pub line: u32,
}

/// Every `tidy:` directive found in one file.
#[derive(Debug, Default)]
pub struct Directives {
    pub allows: Vec<Allow>,
    pub lock_orders: Vec<LockOrderFact>,
    /// Malformed directives (missing reason, unparseable body).
    pub malformed: Vec<Finding>,
}

/// Scan a file's comments for `tidy:` directives. Directives are honoured
/// in test code too (an allow above a masked line is simply never used).
pub fn parse_directives(ctx: &FileCtx) -> Directives {
    let mut out = Directives::default();
    for tok in &ctx.tokens {
        if !matches!(tok.kind, TokKind::LineComment | TokKind::BlockComment) {
            continue;
        }
        let text = tok.text(&ctx.source);
        let Some(at) = text.find("tidy:") else {
            continue;
        };
        let body = text[at + "tidy:".len()..].trim();
        if let Some(rest) = body.strip_prefix("allow(") {
            let Some(close) = rest.find(')') else {
                out.malformed.push(Finding::new(
                    "malformed-allow",
                    ctx,
                    tok.line,
                    "unclosed `tidy: allow(` directive".to_string(),
                ));
                continue;
            };
            let lint = rest[..close].trim().to_string();
            let tail = rest[close + 1..].trim();
            let reason = tail.strip_prefix("--").map(str::trim).unwrap_or("");
            if lint.is_empty() || reason.is_empty() {
                out.malformed.push(Finding::new(
                    "malformed-allow",
                    ctx,
                    tok.line,
                    format!(
                        "`tidy: allow({lint})` needs a reason: \
                         `// tidy: allow(<lint>) -- <why this is sound>`"
                    ),
                ));
                continue;
            }
            out.allows.push(Allow {
                lint,
                reason: reason.to_string(),
                path: ctx.path.clone(),
                line: tok.line,
                used: false,
            });
        } else if let Some(rest) = body.strip_prefix("lock-order(") {
            let parsed = rest.find(')').and_then(|close| {
                let inner = &rest[..close];
                let (a, b) = inner.split_once('<')?;
                let (a, b) = (a.trim(), b.trim());
                if a.is_empty() || b.is_empty() || b.contains('<') {
                    None
                } else {
                    Some((a.to_string(), b.to_string()))
                }
            });
            match parsed {
                Some((first, then)) => out.lock_orders.push(LockOrderFact {
                    first,
                    then,
                    path: ctx.path.clone(),
                    line: tok.line,
                }),
                None => out.malformed.push(Finding::new(
                    "malformed-allow",
                    ctx,
                    tok.line,
                    "unparseable `tidy: lock-order` — expected \
                     `// tidy: lock-order(<first> < <second>)`"
                        .to_string(),
                )),
            }
        } else {
            out.malformed.push(Finding::new(
                "malformed-allow",
                ctx,
                tok.line,
                format!("unknown `tidy:` directive: `{body}`"),
            ));
        }
    }
    out
}

/// Apply allows to raw findings: a finding is suppressed by a same-lint
/// allow in the same file on its line or the line above. Returns surviving
/// findings; marks used allows.
pub fn apply_allows(findings: Vec<Finding>, allows: &mut [Allow]) -> Vec<Finding> {
    findings
        .into_iter()
        .filter(|f| {
            for a in allows.iter_mut() {
                if a.path == f.path
                    && a.lint == f.lint
                    && (a.line == f.line || a.line + 1 == f.line)
                {
                    a.used = true;
                    return false;
                }
            }
            true
        })
        .collect()
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Machine-readable report (hand-rolled JSON — the workspace carries no
/// serde; same policy as `MetricsSnapshot::to_json`).
pub fn to_json(findings: &[Finding], allows: &[Allow], files_scanned: usize) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    {{\"lint\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
            f.lint,
            json_escape(&f.path),
            f.line,
            json_escape(&f.message)
        );
    }
    out.push_str("\n  ],\n  \"allows\": [");
    for (i, a) in allows.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    {{\"lint\": \"{}\", \"file\": \"{}\", \"line\": {}, \"reason\": \"{}\"}}",
            json_escape(&a.lint),
            json_escape(&a.path),
            a.line,
            json_escape(&a.reason)
        );
    }
    let _ = write!(
        out,
        "\n  ],\n  \"files_scanned\": {files_scanned},\n  \"finding_count\": {},\n  \"allow_count\": {}\n}}\n",
        findings.len(),
        allows.len()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::CrateKind;

    fn ctx(src: &str) -> FileCtx {
        FileCtx::from_source("f.rs", "f", CrateKind::Library, src.to_string())
    }

    #[test]
    fn allow_parses_with_reason() {
        let c = ctx("// tidy: allow(no-panic) -- length checked above\nx.unwrap();");
        let d = parse_directives(&c);
        assert_eq!(d.allows.len(), 1);
        assert_eq!(d.allows[0].lint, "no-panic");
        assert_eq!(d.allows[0].reason, "length checked above");
        assert!(d.malformed.is_empty());
    }

    #[test]
    fn allow_without_reason_is_malformed() {
        let c = ctx("// tidy: allow(no-panic)\nx.unwrap();");
        let d = parse_directives(&c);
        assert!(d.allows.is_empty());
        assert_eq!(d.malformed.len(), 1);
        assert_eq!(d.malformed[0].lint, "malformed-allow");
    }

    #[test]
    fn lock_order_parses() {
        let c = ctx("// tidy: lock-order(writer < flusher) -- append before flush\n");
        let d = parse_directives(&c);
        assert_eq!(d.lock_orders.len(), 1);
        assert_eq!(d.lock_orders[0].first, "writer");
        assert_eq!(d.lock_orders[0].then, "flusher");
    }

    #[test]
    fn unknown_directive_is_malformed() {
        let c = ctx("// tidy: allwo(no-panic) -- typo\n");
        let d = parse_directives(&c);
        assert_eq!(d.malformed.len(), 1);
    }

    #[test]
    fn allows_suppress_same_and_next_line_only() {
        let c = ctx("fn f() {}\n");
        let mut allows = vec![Allow {
            lint: "no-panic".into(),
            reason: "r".into(),
            path: "f.rs".into(),
            line: 10,
            used: false,
        }];
        let findings = vec![
            Finding {
                lint: "no-panic",
                path: "f.rs".into(),
                line: 10,
                message: String::new(),
            },
            Finding {
                lint: "no-panic",
                path: "f.rs".into(),
                line: 11,
                message: String::new(),
            },
            Finding {
                lint: "no-panic",
                path: "f.rs".into(),
                line: 12,
                message: String::new(),
            },
            Finding {
                lint: "lock-across-io",
                path: "f.rs".into(),
                line: 11,
                message: String::new(),
            },
        ];
        let left = apply_allows(findings, &mut allows);
        assert_eq!(left.len(), 2);
        assert!(left.iter().any(|f| f.line == 12));
        assert!(left.iter().any(|f| f.lint == "lock-across-io"));
        assert!(allows[0].used);
        let _ = ctx("");
        let _ = &c;
    }

    #[test]
    fn json_report_escapes() {
        let f = vec![Finding {
            lint: "no-panic",
            path: "a\"b.rs".into(),
            line: 1,
            message: "quote \" and\nnewline".into(),
        }];
        let j = to_json(&f, &[], 3);
        assert!(j.contains("\\\""));
        assert!(j.contains("\\n"));
        assert!(j.contains("\"files_scanned\": 3"));
    }
}
