//! `rewind-lint` — the rewind-tidy CLI.
//!
//! ```text
//! cargo run -p rewind-lint --release              # lint the workspace, exit 1 on findings
//! cargo run -p rewind-lint --release -- --json tidy-report.json
//! cargo run -p rewind-lint --release -- --list    # lint catalog
//! cargo run -p rewind-lint --release -- --loc     # non-test code lines per crate
//! cargo run -p rewind-lint --release -- --loc --files # ... and per file
//! cargo run -p rewind-lint --release -- --dead-pub # pub fns no non-test code names
//! cargo run -p rewind-lint --release -- --root /path/to/workspace
//! ```

use std::collections::HashSet;
use std::path::PathBuf;
use std::process::ExitCode;

use rewind_lint::lexer::TokKind;
use rewind_lint::walk::{CrateKind, FileCtx};
use rewind_lint::{lints, run, walk};

/// Non-test code lines of one file: lines that carry at least one
/// non-comment token, above the file's first `#[cfg(test)]` / `#[test]`
/// item. The measure ROADMAP aim 2 ("the trend should be down") is read in:
/// moving code into tests or deleting comments does not move it.
fn code_lines(ctx: &FileCtx) -> usize {
    let first_test = ctx.test_mask.iter().position(|&masked| masked);
    let cutoff = first_test.map_or(u32::MAX, |i| ctx.tokens[i].line);
    let mut lines: Vec<u32> = Vec::new();
    for tok in &ctx.tokens {
        if tok.line >= cutoff {
            break;
        }
        if matches!(tok.kind, TokKind::LineComment | TokKind::BlockComment) {
            continue;
        }
        // A token spanning lines (a multi-line string) is code on each.
        let spanned = tok.text(&ctx.source).matches('\n').count() as u32;
        lines.extend(tok.line..=tok.line + spanned);
    }
    lines.dedup();
    lines.len()
}

/// `--loc --files`: [`code_lines`] of every file `--loc` counts, largest
/// first (ties by path).
fn loc_per_file(files: &[FileCtx]) -> Vec<(&str, usize)> {
    let mut out: Vec<(&str, usize)> = files
        .iter()
        .filter(|c| c.kind != CrateKind::Test)
        .map(|c| (c.path.as_str(), code_lines(c)))
        .collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    out
}

/// `--loc`: [`code_lines`] per crate and in total over everything the walker
/// polices as shipped code (`crates/*/src` and the root `src/`; the lint
/// tool, the shims, tests, examples and `bench/` are not in it).
fn print_loc(files: &[FileCtx], per_file: bool) {
    let mut per_crate: Vec<(&str, usize)> = Vec::new();
    for ctx in files.iter().filter(|c| c.kind != CrateKind::Test) {
        let n = code_lines(ctx);
        match per_crate
            .iter_mut()
            .find(|(name, _)| *name == ctx.crate_name)
        {
            Some(entry) => entry.1 += n,
            None => per_crate.push((&ctx.crate_name, n)),
        }
    }
    per_crate.sort();
    println!("loc: non-blank non-comment lines above each file's first #[cfg(test)]");
    for (name, n) in &per_crate {
        println!("  {name:12} {n:6}");
    }
    let total: usize = per_crate.iter().map(|(_, n)| n).sum();
    println!("  {:12} {total:6}", "total");
    if per_file {
        println!("loc --files: the same count per file, largest first");
        for (path, n) in loc_per_file(files) {
            println!("  {n:6} {path}");
        }
    }
}

/// Whether `ctx` is a non-test token stream for `--dead-pub`: every walked
/// `src` file (library or tool), `examples/` and `bench/src` — never an
/// integration test.
fn is_reference(ctx: &FileCtx) -> bool {
    ctx.kind != CrateKind::Test
        || ctx.path.starts_with("bench/src/")
        || ctx.path.split('/').any(|dir| dir == "examples")
}

/// `--dead-pub`: every `pub fn` of a library crate whose name occurs in no
/// non-test token stream ([`is_reference`], above each file's test mask)
/// other than as the name of a `fn` definition, as sorted
/// `(path, line, name)`. Names in `use` lists do not count, so a re-export
/// alone keeps nothing alive. By name, not by path: a dead `pub fn` that
/// shares its name with a used one is not found.
fn dead_pub(files: &[FileCtx]) -> Vec<(String, u32, String)> {
    let mut used: HashSet<&str> = HashSet::new();
    let mut defined: Vec<(String, u32, String)> = Vec::new();
    for ctx in files.iter().filter(|c| is_reference(c)) {
        let code: Vec<usize> = (0..ctx.tokens.len()).filter(|&i| ctx.is_code(i)).collect();
        let mut in_use = false;
        for (n, &i) in code.iter().enumerate() {
            let text = ctx.text(i);
            match text {
                "use" => in_use = true,
                ";" => in_use = false,
                _ => {}
            }
            if in_use || ctx.tokens[i].kind != TokKind::Ident {
                continue;
            }
            let before = |back: usize| n.checked_sub(back).map(|m| ctx.text(code[m]));
            if before(1) != Some("fn") {
                used.insert(text);
                continue;
            }
            let mut back = 2;
            while matches!(before(back), Some("const" | "async" | "unsafe")) {
                back += 1;
            }
            if ctx.kind == CrateKind::Library && before(back) == Some("pub") {
                defined.push((ctx.path.clone(), ctx.tokens[i].line, text.to_string()));
            }
        }
    }
    defined.retain(|(_, _, name)| !used.contains(name.as_str()));
    defined.sort();
    defined
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut root: Option<PathBuf> = None;
    let mut loc = false;
    let mut per_file = false;
    let mut dead = false;
    let mut json_path: Option<Option<PathBuf>> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => {
                for (name, summary) in lints::ALL {
                    println!("{name:16} {summary}");
                }
                return ExitCode::SUCCESS;
            }
            "--loc" => loc = true,
            "--files" => per_file = true,
            "--dead-pub" => dead = true,
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--root needs a path");
                    return ExitCode::from(2);
                }
            },
            "--json" => {
                // Optional file operand; bare `--json` prints to stdout.
                json_path = Some(args.next().map(PathBuf::from));
            }
            "--help" | "-h" => {
                println!(
                    "rewind-tidy: static enforcement of the ROADMAP invariants\n\
                     \n\
                     usage: rewind-lint [--root DIR] [--json [FILE]] [--list] [--loc [--files]] [--dead-pub]\n\
                     \n\
                     Exits 0 when the tree is clean, 1 on findings, 2 on usage/IO errors.\n\
                     `--loc` prints non-test code lines per crate instead (always exits 0);\n\
                     `--files` adds the same count per file, largest first.\n\
                     `--dead-pub` lists library `pub fn`s no non-test code names (always exits 0).\n\
                     Escape hatch: `// tidy: allow(<lint>) -- <reason>` on or above the line."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other} (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| walk::find_workspace_root(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!(
                "could not locate the workspace root (no Cargo.toml with [workspace]); pass --root"
            );
            return ExitCode::from(2);
        }
    };

    let files = match walk::walk_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("walking {} failed: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if loc || dead {
        if loc {
            print_loc(&files, per_file);
        }
        if dead {
            let found = dead_pub(&files);
            println!(
                "dead-pub: {} library pub fn(s) named in no non-test code (src above the test mask, examples/, bench/src)",
                found.len()
            );
            for (path, line, name) in &found {
                println!("  {path}:{line} {name}");
            }
        }
        return ExitCode::SUCCESS;
    }
    let result = run(&files);

    if let Some(dest) = &json_path {
        let json =
            rewind_lint::report::to_json(&result.findings, &result.allows, result.files_scanned);
        match dest {
            Some(path) => {
                if let Err(e) = std::fs::write(path, &json) {
                    eprintln!("writing {} failed: {e}", path.display());
                    return ExitCode::from(2);
                }
            }
            None => print!("{json}"),
        }
    }

    for f in &result.findings {
        println!("{}:{}: [{}] {}", f.path, f.line, f.lint, f.message);
    }
    println!(
        "tidy: {} files, {} finding{}, {} explained allow{}",
        result.files_scanned,
        result.findings.len(),
        if result.findings.len() == 1 { "" } else { "s" },
        result.allows.len(),
        if result.allows.len() == 1 { "" } else { "s" },
    );
    if !result.allows.is_empty() && result.findings.is_empty() {
        for a in &result.allows {
            println!("  allow {}:{} [{}] -- {}", a.path, a.line, a.lint, a.reason);
        }
    }
    if result.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_lines_skip_blanks_comments_and_everything_from_the_first_test_item() {
        let src = "//! docs\n\nuse a::b; // trailing\n/* block\n   comment */\nfn f() {\n    let s = \"two\nlines\";\n}\n\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let ctx = FileCtx::from_source("x.rs", "x", CrateKind::Library, src.to_string());
        // `use`, `fn f() {`, the string's two lines, `}`.
        assert_eq!(code_lines(&ctx), 5);
    }

    #[test]
    fn loc_per_file_counts_each_file_above_its_test_tail() {
        let file =
            |path: &str, kind, src: &str| FileCtx::from_source(path, "x", kind, src.to_string());
        let files = [
            file("crates/x/src/small.rs", CrateKind::Library, "fn a() {}\n"),
            file(
                "crates/x/src/big.rs",
                CrateKind::Library,
                "// doc\nfn a() {\n}\n\nfn b() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n",
            ),
            file("tests/it.rs", CrateKind::Test, "fn t() {}\n"),
        ];
        // `big.rs`: `fn a() {`, `}`, `fn b() {}`; the test tail and the
        // integration test are not counted.
        assert_eq!(
            loc_per_file(&files),
            [("crates/x/src/big.rs", 3), ("crates/x/src/small.rs", 1)]
        );
    }

    #[test]
    fn dead_pub_lists_library_pub_fns_no_non_test_code_names() {
        let file =
            |path: &str, kind, src: &str| FileCtx::from_source(path, "x", kind, src.to_string());
        let files = [
            file(
                "crates/x/src/lib.rs",
                CrateKind::Library,
                "pub fn called() {}\npub fn only_tested() {}\npub const fn only_reexported() {}\n\
                 pub(crate) fn private() {}\npub fn in_example() {}\npub fn in_bench() {}\n\
                 pub fn shadowed() {}\nfn other() { called(); }\n\
                 // pub fn commented() {}\n\
                 #[cfg(test)]\nmod tests { fn t() { super::only_tested(); } }\n",
            ),
            file(
                "crates/x/src/re.rs",
                CrateKind::Library,
                "pub use crate::only_reexported;\nfn shadowed() {}\n",
            ),
            file(
                "tests/it.rs",
                CrateKind::Test,
                "fn t() { only_tested(); }\n",
            ),
            file(
                "examples/demo.rs",
                CrateKind::Test,
                "fn main() { in_example(); }\n",
            ),
            file(
                "bench/src/main.rs",
                CrateKind::Test,
                "fn main() { in_bench(); }\n",
            ),
            file(
                "crates/bench/src/lib.rs",
                CrateKind::Tool,
                "pub fn tool_only() {}\n",
            ),
        ];
        let names: Vec<String> = dead_pub(&files).into_iter().map(|(_, _, n)| n).collect();
        // Tool crates are readers, not candidates; a definition of the same
        // name elsewhere is not a reference.
        assert_eq!(names, ["only_tested", "only_reexported", "shadowed"]);
        let first = (
            "crates/x/src/lib.rs".to_string(),
            2,
            "only_tested".to_string(),
        );
        assert_eq!(dead_pub(&files)[0], first, "sorted by path, then line");
    }
}
