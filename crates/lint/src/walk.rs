//! Workspace file discovery and per-file analysis context.
//!
//! The walker finds every `.rs` file that is *shipped engine code*:
//!
//! * `src/` of every workspace crate plus the root facade crate;
//! * excluding `crates/shims/` (vendored API-compatible stand-ins — not
//!   our code to police), `crates/lint/` (the tool itself), and every
//!   `tests/`, `benches/`, `examples/`, `fixtures/` directory;
//! * excluding, token-by-token, items under `#[cfg(test)]` / `#[test]`
//!   attributes — test code may unwrap freely.
//!
//! Crates are classified [`CrateKind::Library`] or [`CrateKind::Tool`]:
//! tool crates (`bench`) exist to print and to time, so the output- and
//! wall-clock-hygiene lints do not apply there, while the memory-safety
//! and locking lints still do.
//!
//! Integration tests, examples and the standalone `bench/` workspace are
//! walked too, as [`CrateKind::Test`]: they may unwrap, print and time
//! freely, so only the workspace-wide structural lints (`one-allocator`)
//! look at them.

use std::fs;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, TokKind, Token};

/// How strictly a crate is policed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrateKind {
    /// Engine code: every lint applies.
    Library,
    /// Drivers/benches: printing and wall-clock timing are their job;
    /// panic-freedom is not demanded of a CLI's top level.
    Tool,
    /// Integration tests, examples, the `bench/` workspace: exempt from
    /// every code lint except the workspace-wide structural ones.
    Test,
}

/// One analyzed file: source, token stream, and derived masks.
pub struct FileCtx {
    /// Workspace-relative path with `/` separators (stable across OSes).
    pub path: String,
    /// Crate name as in `crates/<name>/…` (the root facade is `rewind`).
    pub crate_name: String,
    pub kind: CrateKind,
    pub source: String,
    /// Every token, comments included.
    pub tokens: Vec<Token>,
    /// `test_mask[i]` — token `i` is inside a `#[cfg(test)]`/`#[test]`
    /// item and exempt from the code lints.
    pub test_mask: Vec<bool>,
}

impl FileCtx {
    /// Build a context from source text (public so fixture tests can lint
    /// in-memory snippets without touching the filesystem).
    pub fn from_source(path: &str, crate_name: &str, kind: CrateKind, source: String) -> FileCtx {
        let tokens = lex(&source);
        let test_mask = compute_test_mask(&source, &tokens);
        FileCtx {
            path: path.to_string(),
            crate_name: crate_name.to_string(),
            kind,
            source,
            tokens,
            test_mask,
        }
    }

    /// Token text helper.
    pub fn text(&self, i: usize) -> &str {
        self.tokens[i].text(&self.source)
    }

    /// Is token `i` live, non-test code (not a comment, not test-masked)?
    pub fn is_code(&self, i: usize) -> bool {
        !self.test_mask[i]
            && !matches!(
                self.tokens[i].kind,
                TokKind::LineComment | TokKind::BlockComment
            )
    }
}

/// Mark every token covered by a `#[cfg(test)]` or `#[test]` attribute's
/// item. The scan is purely token-driven: on such an attribute, skip any
/// further attributes, then mask through the item's body — either the
/// matching `{ … }` block or a terminating `;`.
fn compute_test_mask(src: &str, tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if let Some(after_attr) = test_attribute_end(src, tokens, i) {
            let item_end = skip_item(src, tokens, after_attr);
            for m in mask.iter_mut().take(item_end).skip(i) {
                *m = true;
            }
            i = item_end;
        } else {
            i += 1;
        }
    }
    mask
}

/// If tokens at `i` open an attribute `#[…]` whose contents mention a
/// bare `test` (covers `#[test]`, `#[cfg(test)]`, `#[cfg(any(test, …))]`,
/// `#[cfg(all(test, …))]`), return the index one past the closing `]`.
fn test_attribute_end(src: &str, tokens: &[Token], i: usize) -> Option<usize> {
    if tokens[i].kind != TokKind::Punct || tokens[i].text(src) != "#" {
        return None;
    }
    let open = i + 1;
    if open >= tokens.len() || tokens[open].text(src) != "[" {
        return None;
    }
    let mut depth = 0usize;
    let mut saw_test = false;
    let mut j = open;
    while j < tokens.len() {
        let t = tokens[j].text(src);
        match t {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return if saw_test { Some(j + 1) } else { None };
                }
            }
            "test" if tokens[j].kind == TokKind::Ident => saw_test = true,
            _ => {}
        }
        j += 1;
    }
    None
}

/// From the first token after an attribute, skip the item it covers:
/// further attributes, then either a braced body or a `;`-terminated
/// declaration. Returns the index one past the item.
fn skip_item(src: &str, tokens: &[Token], mut i: usize) -> usize {
    // Chained attributes (`#[cfg(test)] #[allow(…)] mod t { … }`).
    while i + 1 < tokens.len() && tokens[i].text(src) == "#" && tokens[i + 1].text(src) == "[" {
        let mut depth = 0usize;
        i += 1;
        while i < tokens.len() {
            match tokens[i].text(src) {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
    // Scan to the item body: the first `{` at nesting level zero of
    // parens/brackets (fn params, generics hold no braces), or a `;`.
    let mut paren = 0isize;
    while i < tokens.len() {
        match tokens[i].text(src) {
            "(" | "[" => paren += 1,
            ")" | "]" => paren -= 1,
            ";" if paren == 0 => return i + 1,
            "{" if paren == 0 => {
                // Consume the balanced brace block.
                let mut depth = 0usize;
                while i < tokens.len() {
                    match tokens[i].text(src) {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                return i + 1;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
                return i;
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// Directories never descended into, anywhere in the tree.
const SKIP_DIRS: &[&str] = &[
    "target", "tests", "benches", "examples", "fixtures", ".git", ".github",
];

/// Per-crate (and root) directories walked as [`CrateKind::Test`].
const TEST_DIRS: &[&str] = &["tests", "examples", "benches"];

/// Crate directories excluded wholesale.
const SKIP_CRATES: &[&str] = &["shims", "lint"];

/// Crates classified as tools rather than engine libraries.
const TOOL_CRATES: &[&str] = &["bench"];

/// Discover and analyze every policed `.rs` file under `root` (the
/// workspace root). Deterministic order (sorted paths).
pub fn walk_workspace(root: &Path) -> std::io::Result<Vec<FileCtx>> {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut test_paths: Vec<PathBuf> = Vec::new();
    collect_rs(&root.join("src"), &mut paths)?;
    for dir in TEST_DIRS {
        collect_rs(&root.join(dir), &mut test_paths)?;
    }
    collect_rs(&root.join("bench").join("src"), &mut test_paths)?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy().to_string();
            if SKIP_CRATES.contains(&name.as_str()) {
                continue;
            }
            collect_rs(&entry.path().join("src"), &mut paths)?;
            for dir in TEST_DIRS {
                collect_rs(&entry.path().join(dir), &mut test_paths)?;
            }
        }
    }
    paths.sort();
    test_paths.sort();
    let mut out = Vec::with_capacity(paths.len() + test_paths.len());
    let engine = paths.into_iter().map(|p| (p, false));
    for (p, is_test) in engine.chain(test_paths.into_iter().map(|p| (p, true))) {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .to_string_lossy()
            .replace('\\', "/");
        let crate_name = match rel.strip_prefix("crates/") {
            Some(rest) => rest.split('/').next().unwrap_or("").to_string(),
            None => "rewind".to_string(),
        };
        let kind = if is_test {
            CrateKind::Test
        } else if TOOL_CRATES.contains(&crate_name.as_str()) {
            CrateKind::Tool
        } else {
            CrateKind::Library
        };
        let source = fs::read_to_string(&p)?;
        out.push(FileCtx::from_source(&rel, &crate_name, kind, source));
    }
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().to_string();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_str()) {
                collect_rs(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Locate the workspace root: walk up from `start` to the first directory
/// whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(src: &str) -> FileCtx {
        FileCtx::from_source("x.rs", "x", CrateKind::Library, src.to_string())
    }

    #[test]
    fn cfg_test_mod_is_masked() {
        let src =
            "fn live() {}\n#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); }\n}\nfn live2() {}";
        let c = ctx(src);
        let live: Vec<&str> = (0..c.tokens.len())
            .filter(|&i| c.is_code(i) && c.tokens[i].kind == TokKind::Ident)
            .map(|i| c.text(i))
            .collect();
        assert!(live.contains(&"live"));
        assert!(live.contains(&"live2"));
        assert!(!live.contains(&"unwrap"), "{live:?}");
    }

    #[test]
    fn test_attribute_fn_is_masked() {
        let src = "#[test]\nfn t() { panic!(); }\nfn real() {}";
        let c = ctx(src);
        let live: Vec<&str> = (0..c.tokens.len())
            .filter(|&i| c.is_code(i) && c.tokens[i].kind == TokKind::Ident)
            .map(|i| c.text(i))
            .collect();
        assert!(!live.contains(&"panic"));
        assert!(live.contains(&"real"));
    }

    #[test]
    fn cfg_any_test_and_chained_attrs_are_masked() {
        let src = "#[cfg(any(test, feature = \"x\"))]\n#[allow(dead_code)]\nfn helper() { y.unwrap(); }\nfn live() {}";
        let c = ctx(src);
        let live: Vec<&str> = (0..c.tokens.len())
            .filter(|&i| c.is_code(i) && c.tokens[i].kind == TokKind::Ident)
            .map(|i| c.text(i))
            .collect();
        assert!(!live.contains(&"unwrap"), "{live:?}");
        assert!(live.contains(&"live"));
    }

    #[test]
    fn non_test_cfg_is_not_masked() {
        let src = "#[cfg(feature = \"enabled\")]\nfn live() { real(); }";
        let c = ctx(src);
        let live: Vec<&str> = (0..c.tokens.len())
            .filter(|&i| c.is_code(i) && c.tokens[i].kind == TokKind::Ident)
            .map(|i| c.text(i))
            .collect();
        assert!(live.contains(&"real"));
    }

    #[test]
    fn semicolon_terminated_test_item_is_masked() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn live() {}";
        let c = ctx(src);
        let live: Vec<&str> = (0..c.tokens.len())
            .filter(|&i| c.is_code(i) && c.tokens[i].kind == TokKind::Ident)
            .map(|i| c.text(i))
            .collect();
        assert!(!live.contains(&"HashMap"));
        assert!(live.contains(&"live"));
    }
}
