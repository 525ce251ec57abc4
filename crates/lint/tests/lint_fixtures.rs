//! Fixture tests: run the full tidy pipeline over minimal violating and
//! allowlisted snippets, asserting exact finding counts and lines — the
//! lint tool is itself CI-gated code and gets the same rigour as the
//! engine.

use rewind_lint::report::Finding;
use rewind_lint::run;
use rewind_lint::walk::{CrateKind, FileCtx};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => panic!("fixture {path}: {e}"),
    }
}

/// Lint one fixture as a library file; return surviving findings + allow
/// count.
fn lint_fixture(name: &str) -> (Vec<Finding>, usize) {
    lint_as(name, &format!("crates/fixture/src/{name}"), "fixture")
}

fn lint_as(name: &str, path: &str, crate_name: &str) -> (Vec<Finding>, usize) {
    let ctx = FileCtx::from_source(path, crate_name, CrateKind::Library, fixture(name));
    let result = run(std::slice::from_ref(&ctx));
    (result.findings, result.allows.len())
}

fn lines_of(findings: &[Finding], lint: &str) -> Vec<u32> {
    findings
        .iter()
        .filter(|f| f.lint == lint)
        .map(|f| f.line)
        .collect()
}

#[test]
fn no_panic_flags_every_shape_with_exact_lines() {
    let (findings, _) = lint_fixture("no_panic_violations.rs");
    assert_eq!(
        lines_of(&findings, "no-panic"),
        vec![5, 8, 10, 13, 16, 20],
        "{findings:#?}"
    );
    assert_eq!(findings.len(), 6, "only no-panic findings expected");
}

#[test]
fn no_panic_honours_allows_and_test_code() {
    let (findings, allows) = lint_fixture("no_panic_allowed.rs");
    assert_eq!(findings, vec![], "{findings:#?}");
    assert_eq!(allows, 2);
}

#[test]
fn tool_crates_are_exempt_from_panic_and_output_lints() {
    let src = fixture("no_panic_violations.rs");
    let ctx = FileCtx::from_source("crates/bench/src/bin/x.rs", "bench", CrateKind::Tool, src);
    let result = run(std::slice::from_ref(&ctx));
    assert_eq!(result.findings, vec![], "{:#?}", result.findings);
}

#[test]
fn lexer_never_false_positives_inside_literals_or_comments() {
    let (findings, allows) = lint_fixture("lexer_no_false_positives.rs");
    assert_eq!(findings, vec![], "{findings:#?}");
    assert_eq!(allows, 0);
}

#[test]
fn lock_across_io_exact_findings() {
    let (findings, _) = lint_fixture("lock_across_io.rs");
    assert_eq!(
        lines_of(&findings, "lock-across-io"),
        vec![9, 31, 43, 50],
        "{findings:#?}"
    );
    assert_eq!(findings.len(), 4);
}

#[test]
fn unsafe_audit_exact_findings() {
    let (findings, _) = lint_fixture("unsafe_audit.rs");
    assert_eq!(
        lines_of(&findings, "unsafe-audit"),
        vec![5, 18],
        "{findings:#?}"
    );
    assert_eq!(findings.len(), 2);
}

#[test]
fn one_allocator_exact_findings_everywhere_but_common() {
    let lint_at = |path: &str, crate_name: &str, kind: CrateKind| {
        let ctx = FileCtx::from_source(path, crate_name, kind, fixture("one_allocator.rs"));
        run(std::slice::from_ref(&ctx)).findings
    };
    // A test file: the only lint that looks at it, test-masked item included.
    let in_test = lint_at("crates/wal/tests/zero_alloc.rs", "wal", CrateKind::Test);
    assert_eq!(
        lines_of(&in_test, "one-allocator"),
        vec![10, 20, 27],
        "{in_test:#?}"
    );
    assert_eq!(in_test.len(), 3, "test files see no other lint");
    // A bench binary: same three (plus whatever else applies to tools).
    let in_tool = lint_at("crates/bench/src/bin/figures.rs", "bench", CrateKind::Tool);
    assert_eq!(lines_of(&in_tool, "one-allocator"), vec![10, 20, 27]);
    // The one home of the allocator is exempt.
    let at_home = lint_at(
        "crates/common/src/testalloc.rs",
        "common",
        CrateKind::Library,
    );
    assert_eq!(lines_of(&at_home, "one-allocator"), Vec::<u32>::new());
}

#[test]
fn one_chain_flags_prev_lsn_copied_from_last_lsn_outside_the_log() {
    let (findings, _) = lint_fixture("one_chain.rs");
    assert_eq!(
        lines_of(&findings, "one-chain"),
        vec![8, 15, 18],
        "{findings:#?}"
    );
    assert_eq!(findings.len(), 3, "only one-chain findings expected");
    // The log itself moves the chain.
    let (inside, _) = lint_as("one_chain.rs", "crates/wal/src/logmgr.rs", "wal");
    assert_eq!(inside, vec![], "{inside:#?}");
}

#[test]
fn the_workspace_has_exactly_one_global_allocator() {
    // The walk covers tests/, examples/, benches/ and bench/src, so a copy
    // pasted into any of them fails here (and in the CI tidy job).
    let root = std::path::PathBuf::from(format!("{}/../..", env!("CARGO_MANIFEST_DIR")));
    let files = rewind_lint::walk::walk_workspace(&root).unwrap();
    assert!(
        files
            .iter()
            .any(|f| f.kind == CrateKind::Test && f.path == "crates/wal/tests/zero_alloc.rs"),
        "integration tests are walked"
    );
    let result = run(&files);
    assert_eq!(
        lines_of(&result.findings, "one-allocator"),
        Vec::<u32>::new(),
        "{:#?}",
        result.findings
    );
}

#[test]
fn hygiene_exact_findings() {
    let (findings, _) = lint_fixture("hygiene.rs");
    assert_eq!(
        lines_of(&findings, "wall-clock"),
        vec![9, 10, 10],
        "{findings:#?}"
    );
    assert_eq!(
        lines_of(&findings, "output-hygiene"),
        vec![15, 16],
        "{findings:#?}"
    );
    assert_eq!(
        lines_of(&findings, "std-sync"),
        vec![6, 7, 7],
        "{findings:#?}"
    );
    assert_eq!(findings.len(), 8);
}

#[test]
fn counter_drift_catches_missing_decode_name_and_exposition() {
    let event = FileCtx::from_source(
        "crates/obs/src/event.rs",
        "obs",
        CrateKind::Library,
        fixture("counter_drift_event.rs"),
    );
    let lib = FileCtx::from_source(
        "crates/obs/src/lib.rs",
        "obs",
        CrateKind::Library,
        fixture("counter_drift_obs.rs"),
    );
    let result = run(&[event, lib]);
    let drift: Vec<&Finding> = result
        .findings
        .iter()
        .filter(|f| f.lint == "counter-drift")
        .collect();
    assert_eq!(drift.len(), 3, "{:#?}", result.findings);
    assert!(
        drift
            .iter()
            .any(|f| f.message.contains("ScanBatch") && f.message.contains("from_u64")),
        "{drift:#?}"
    );
    assert!(
        drift
            .iter()
            .any(|f| f.message.contains("LogFlush") && f.message.contains("fn name")),
        "{drift:#?}"
    );
    assert!(
        drift
            .iter()
            .any(|f| f.message.contains("scan_batch") && f.path.ends_with("lib.rs")),
        "{drift:#?}"
    );
}

#[test]
fn counter_drift_is_green_on_the_real_obs_sources() {
    // The actual crates/obs sources must satisfy the drift check — this is
    // the test that breaks when someone adds an EventKind variant or an
    // ObsInner histogram without threading it through decode/exposition.
    let root = format!("{}/../..", env!("CARGO_MANIFEST_DIR"));
    let read = |p: &str| {
        std::fs::read_to_string(format!("{root}/{p}")).unwrap_or_else(|e| panic!("{p}: {e}"))
    };
    let event = FileCtx::from_source(
        "crates/obs/src/event.rs",
        "obs",
        CrateKind::Library,
        read("crates/obs/src/event.rs"),
    );
    let lib = FileCtx::from_source(
        "crates/obs/src/lib.rs",
        "obs",
        CrateKind::Library,
        read("crates/obs/src/lib.rs"),
    );
    let result = run(&[event, lib]);
    let drift: Vec<&Finding> = result
        .findings
        .iter()
        .filter(|f| f.lint == "counter-drift")
        .collect();
    assert_eq!(drift, Vec::<&Finding>::new());
}

#[test]
fn lock_order_cycle_fails_and_dag_passes() {
    let a = FileCtx::from_source(
        "crates/a/src/lib.rs",
        "a",
        CrateKind::Library,
        "// tidy: lock-order(pool < side)\n// tidy: lock-order(side < log)\n".to_string(),
    );
    let b_ok = FileCtx::from_source(
        "crates/b/src/lib.rs",
        "b",
        CrateKind::Library,
        "// tidy: lock-order(pool < log)\n".to_string(),
    );
    let result = run(&[a, b_ok]);
    assert_eq!(
        lines_of(&result.findings, "lock-order"),
        Vec::<u32>::new(),
        "{:#?}",
        result.findings
    );

    let a = FileCtx::from_source(
        "crates/a/src/lib.rs",
        "a",
        CrateKind::Library,
        "// tidy: lock-order(pool < side)\n// tidy: lock-order(side < log)\n".to_string(),
    );
    let b_cycle = FileCtx::from_source(
        "crates/b/src/lib.rs",
        "b",
        CrateKind::Library,
        "// tidy: lock-order(log < pool)\n".to_string(),
    );
    let result = run(&[a, b_cycle]);
    let cycles = lines_of(&result.findings, "lock-order");
    assert_eq!(cycles.len(), 1, "{:#?}", result.findings);
    let msg = &result
        .findings
        .iter()
        .find(|f| f.lint == "lock-order")
        .map(|f| f.message.clone())
        .unwrap_or_default();
    assert!(
        msg.contains("pool") && msg.contains("side") && msg.contains("log"),
        "{msg}"
    );
}

#[test]
fn malformed_and_unused_allows_are_findings() {
    let src = "// tidy: allow(no-panic)\nfn f() {}\n\
               // tidy: allow(no-panic) -- nothing here to suppress\nfn g() {}\n";
    let ctx = FileCtx::from_source(
        "crates/x/src/lib.rs",
        "x",
        CrateKind::Library,
        src.to_string(),
    );
    let result = run(std::slice::from_ref(&ctx));
    assert_eq!(lines_of(&result.findings, "malformed-allow"), vec![1]);
    assert_eq!(lines_of(&result.findings, "unused-allow"), vec![3]);
    assert_eq!(result.findings.len(), 2, "{:#?}", result.findings);
}

#[test]
fn json_report_contains_findings_and_allows() {
    let (findings, _) = lint_fixture("no_panic_violations.rs");
    let json = rewind_lint::report::to_json(&findings, &[], 1);
    assert!(json.contains("\"finding_count\": 6"));
    assert!(json.contains("\"no-panic\""));
    assert!(json.contains("\"files_scanned\": 1"));
}
