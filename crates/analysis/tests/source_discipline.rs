//! Integration tests of the source-discipline analyzer: golden fixtures
//! per FT2xx code, the workspace self-scan (the dogfooding gate), the
//! DESIGN.md code-table drift check, and the drift check between the
//! `clippy.toml` files that took over the clock and hash-container bans.
//!
//! The fixtures live in `tests/fixtures/`, which the workspace walker
//! skips — their violations are deliberate. Each fixture is linted under
//! an explicit path/class so the path-scoped pass (FT205, store) is
//! armed exactly as it would be in tree.

use std::path::{Path, PathBuf};

use ftpde_analysis::diag::{Code, Report, Severity};
use ftpde_analysis::source::{classify, lint_str, lint_workspace, FileClass};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Lints a fixture under an explicit workspace-relative identity.
fn lint_fixture(name: &str, as_path: &str, class: FileClass) -> Report {
    lint_str(as_path, class, &fixture(name))
}

/// `(code, line)` pairs of a report, in emission order.
fn at(report: &Report) -> Vec<(Code, u32)> {
    report.diagnostics.iter().map(|d| (d.code, d.line.unwrap_or(0))).collect()
}

#[test]
fn ft204_fixture_is_lint_severity_and_spares_tests() {
    let r = lint_fixture("ft204_panics.rs", "crates/engine/src/fixture.rs", FileClass::Lib);
    let want = [(Code::FT204, 5), (Code::FT204, 6), (Code::FT204, 8)];
    assert_eq!(at(&r), want, "{}", r.render());
    assert!(r.is_clean(), "the hygiene ratchet must never gate");
}

#[test]
fn ft205_fixture_requires_fsync_in_the_renaming_fn() {
    let r = lint_fixture("ft205_unsynced_rename.rs", "crates/store/src/fixture.rs", FileClass::Lib);
    assert_eq!(at(&r), [(Code::FT205, 8)], "{}", r.render());
    assert!(r.diagnostics[0].message.contains("torn_commit"), "{}", r.render());
}

/// The FT204 hygiene ratchet: a committed baseline gates increases and
/// only increases — matching or shrinking counts stay clean.
#[test]
fn ft204_ratchet_gates_on_increase_only() {
    let dir = std::env::temp_dir().join("ftpde_ft204_ratchet_it");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("crates/x/src")).unwrap();
    std::fs::create_dir_all(dir.join("tests")).unwrap();
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").unwrap();
    std::fs::write(dir.join("crates/x/src/lib.rs"), "pub fn f() -> u32 { None::<u32>.unwrap() }\n")
        .unwrap();

    std::fs::write(dir.join("tests/ft204_baseline.txt"), "0\n").unwrap();
    let scan = lint_workspace(&dir).expect("scan");
    assert!(!scan.is_clean(), "count 1 > baseline 0 must gate:\n{}", scan.render());
    assert!(
        scan.set.reports.iter().any(|r| r.subject == "tests/ft204_baseline.txt"),
        "{}",
        scan.render()
    );

    std::fs::write(dir.join("tests/ft204_baseline.txt"), "1\n").unwrap();
    let scan = lint_workspace(&dir).expect("scan");
    assert!(scan.is_clean(), "count == baseline must pass:\n{}", scan.render());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The dogfooding gate: the workspace that ships this analyzer passes
/// it. An unsynced rename on the store commit path, or a rise in the
/// FT204 count above its baseline, fails this test before CI even runs
/// the CLI.
#[test]
fn workspace_self_scan_is_clean() {
    let root = workspace_root();
    let scan = lint_workspace(&root).expect("workspace scan");
    assert!(
        scan.files_scanned > 100,
        "suspiciously few files ({}) — walker broken?",
        scan.files_scanned
    );
    assert!(scan.is_clean(), "workspace has source-discipline errors:\n{}", scan.render());
    assert_eq!(0, scan.set.count(Severity::Warn), "unresolved warnings:\n{}", scan.render());
}

/// A seeded violation in a scratch workspace is detected end to end via
/// the directory walker (not just `lint_str`) — the fixture-level proof
/// that the CI gate turns red when discipline regresses. The clock read
/// on the second line is clippy's to reject (`crates/clippy.toml`), not
/// the token passes'.
#[test]
fn seeded_violation_fails_a_workspace_scan() {
    let dir = std::env::temp_dir().join("ftpde_source_seeded_it");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("crates/store/src")).unwrap();
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").unwrap();
    std::fs::write(
        dir.join("crates/store/src/lib.rs"),
        "pub fn commit(tmp: &str, dst: &str) { let _ = std::fs::rename(tmp, dst); }\n\
         pub fn t() -> std::time::Instant { std::time::Instant::now() }\n",
    )
    .unwrap();
    let scan = lint_workspace(&dir).expect("scan");
    assert_eq!(1, scan.files_scanned);
    assert!(!scan.is_clean());
    let codes: Vec<Code> =
        scan.set.reports.iter().flat_map(|r| r.diagnostics.iter().map(|d| d.code)).collect();
    assert_eq!(codes, [Code::FT205], "{}", scan.render());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The FT2xx table in DESIGN.md §14 is generated from the registry; this
/// test re-generates it and diffs, so the book cannot drift from the
/// code.
#[test]
fn design_doc_ft2xx_table_matches_registry() {
    let design = std::fs::read_to_string(workspace_root().join("DESIGN.md")).expect("DESIGN.md");
    let begin =
        "<!-- FT2XX-TABLE BEGIN (generated: ftpde_analysis::codes::ft2xx_markdown_table) -->";
    let end = "<!-- FT2XX-TABLE END -->";
    let start = design.find(begin).expect("DESIGN.md must carry the FT2XX-TABLE BEGIN marker");
    let stop = design.find(end).expect("DESIGN.md must carry the FT2XX-TABLE END marker");
    let embedded = design[start + begin.len()..stop].trim();
    let generated = ftpde_analysis::codes::ft2xx_markdown_table();
    assert_eq!(
        embedded,
        generated.trim(),
        "DESIGN.md §14 table drifted from the registry — regenerate it"
    );
}

/// Every classification the self-scan depends on, pinned against the
/// real tree: library code is library code, fixtures are skipped, bench
/// code and binaries are exempt.
#[test]
fn classification_matches_the_real_tree() {
    assert_eq!(classify("crates/obs/src/sync.rs"), Some(FileClass::Lib));
    assert_eq!(classify("crates/analysis/tests/fixtures/ft205_unsynced_rename.rs"), None);
    assert_eq!(classify("crates/bench/src/fig13.rs"), Some(FileClass::Exempt));
    assert_eq!(classify("src/bin/ftpde.rs"), Some(FileClass::Exempt));
}

/// The clock ban lives in `crates/clippy.toml`, but clippy reads only
/// the `clippy.toml` nearest to a crate, so the crate-local files of
/// core and the optimizer (which add the `HashMap`/`HashSet` ban) must
/// repeat every entry of the shared one.
#[test]
fn crate_local_clippy_configs_repeat_the_shared_entries() {
    let read = |rel: &str| {
        std::fs::read_to_string(workspace_root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
    };
    let shared = read("crates/clippy.toml");
    let entries: Vec<&str> =
        shared.lines().map(str::trim).filter(|l| l.starts_with("{ path = ")).collect();
    assert!(entries.len() >= 3, "crates/clippy.toml lost its clock entries: {entries:?}");
    for local in ["crates/core/clippy.toml", "crates/optimizer/clippy.toml"] {
        let text = read(local);
        for entry in &entries {
            assert!(text.lines().any(|l| l.trim() == *entry), "{local} does not repeat `{entry}`");
        }
    }
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).expect("workspace root").to_path_buf()
}
