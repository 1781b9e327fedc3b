//! Source-discipline analyzer: FT2xx lints over the workspace's Rust
//! sources.
//!
//! The plan linter (`FT0xx`) checks what the optimizer *produces* and
//! the conformance checker (`FT1xx`) checks what the engine *did*; this
//! module closes the triangle by checking what the code *is*. A
//! dependency-free, comment/string-aware tokenizer ([`tokens`]) feeds
//! two coded passes ([`passes`]) that run over every library source
//! file in the workspace: `FT204`, a ratchet on panicking calls, and
//! `FT205`, which pairs every rename on the store's commit path with an
//! fsync.
//!
//! Checks the compiler can make with type resolution live with the
//! compiler instead: clock reads and `HashMap`/`HashSet` in core and the
//! optimizer are clippy `disallowed-methods`/`disallowed-types` entries
//! in the `clippy.toml` files under `crates/`, and `unsafe` is the
//! workspace's `unsafe_code = "deny"`.
//!
//! `ftpde lint --source` is the CLI face and CI gate; see `DESIGN.md`
//! §14 for the full code table (generated from [`crate::codes`]).

pub mod items;
pub mod passes;
pub mod tokens;

use std::path::Path;

use crate::diag::{Code, Diagnostic, Report, ReportSet, Severity};

/// What kind of code a file is — which discipline it owes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library code: every pass runs (FT204, and FT205 under
    /// `crates/store/`).
    Lib,
    /// Tests, examples, benchmark code, binaries and build scripts: no
    /// pass runs.
    Exempt,
}

/// Directory names never descended into during discovery. `fixtures`
/// holds deliberately-offending snippets for the analyzer's own tests.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures"];

/// Classifies a workspace-relative path (forward slashes). Returns
/// `None` for files the scan skips entirely.
pub fn classify(rel_path: &str) -> Option<FileClass> {
    if !rel_path.ends_with(".rs") {
        return None;
    }
    let parts: Vec<&str> = rel_path.split('/').collect();
    let file = parts.last().copied().unwrap_or_default();
    if parts.iter().any(|p| SKIP_DIRS.contains(p)) {
        return None;
    }
    if matches!(file, "main.rs" | "build.rs")
        || rel_path.starts_with("crates/bench/")
        || parts.iter().any(|p| matches!(*p, "tests" | "examples" | "benches" | "bin"))
    {
        return Some(FileClass::Exempt);
    }
    Some(FileClass::Lib)
}

/// Lints one file's source text under an explicit classification —
/// the pure core used by both the workspace scan and the fixture tests.
pub fn lint_str(rel_path: &str, class: FileClass, src: &str) -> Report {
    passes::lint_tokens(rel_path, class, &tokens::tokenize(src))
}

/// The result of a whole-workspace scan.
#[derive(Debug, Clone)]
pub struct SourceScan {
    /// Per-file reports, only for files with findings; subjects are
    /// workspace-relative paths, deterministically ordered.
    pub set: ReportSet,
    /// Total files classified and linted (clean files included).
    pub files_scanned: usize,
}

impl SourceScan {
    /// `true` iff no Error-severity finding anywhere.
    pub fn is_clean(&self) -> bool {
        self.set.is_clean()
    }

    /// Renders the scan: per-code rollup first, then every Warn/Error
    /// finding in full. Lint-severity findings (the FT204 hygiene
    /// ratchet) are summarized per code rather than listed — they never
    /// gate, and hundreds of lines would bury the findings that do.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut per_code: std::collections::BTreeMap<&str, (usize, Severity)> = Default::default();
        for r in &self.set.reports {
            for d in &r.diagnostics {
                let e = per_code.entry(d.code.as_str()).or_insert((0, d.severity));
                e.0 += 1;
                e.1 = e.1.max(d.severity);
            }
        }
        let _ = writeln!(
            out,
            "source lint: {} file(s) scanned, {} error(s), {} warning(s), {} lint(s)",
            self.files_scanned,
            self.set.count(Severity::Error),
            self.set.count(Severity::Warn),
            self.set.count(Severity::Lint)
        );
        for (code, (n, worst)) in &per_code {
            let _ = writeln!(out, "  {code} [{worst}]: {n} finding(s)");
        }
        for r in &self.set.reports {
            for d in &r.diagnostics {
                if d.severity > Severity::Lint {
                    let _ = writeln!(out, "{d}");
                }
            }
        }
        out
    }
}

/// Walks `root` (a workspace checkout) and lints every discovered
/// source file.
///
/// # Errors
/// Only real I/O failures while walking or reading; an unreadable
/// individual entry is an error, not a silent skip — a gate that
/// cannot see a file must not report clean.
pub fn lint_workspace(root: &Path) -> std::io::Result<SourceScan> {
    let mut files = Vec::new();
    discover(root, root, &mut files)?;
    // Deterministic report order regardless of directory-entry order.
    files.sort();
    let mut reports = Vec::new();
    let mut files_scanned = 0;
    for rel in &files {
        let Some(class) = classify(rel) else { continue };
        let report = lint_str(rel, class, &std::fs::read_to_string(root.join(rel))?);
        files_scanned += 1;
        if !report.diagnostics.is_empty() {
            reports.push(report);
        }
    }
    let mut scan = SourceScan { set: ReportSet::new(reports), files_scanned };
    apply_ft204_ratchet(root, &mut scan);
    Ok(scan)
}

/// The FT204 hygiene ratchet: when the workspace commits a baseline
/// count (`tests/ft204_baseline.txt`), a scan whose FT204 count
/// *exceeds* it gets a synthetic Error report. Decreases never block —
/// they are the point — and a missing baseline file disables the
/// ratchet (scratch workspaces in tests have none).
fn apply_ft204_ratchet(root: &Path, scan: &mut SourceScan) {
    let path = root.join("tests").join("ft204_baseline.txt");
    let Ok(text) = std::fs::read_to_string(&path) else { return };
    let Some(baseline) = text.split_whitespace().next().and_then(|w| w.parse::<usize>().ok())
    else {
        return;
    };
    let count = scan
        .set
        .reports
        .iter()
        .flat_map(|r| &r.diagnostics)
        .filter(|d| d.code == Code::FT204)
        .count();
    if count > baseline {
        let mut report = Report::new("tests/ft204_baseline.txt");
        report.push(Diagnostic::new(
            Code::FT204,
            Severity::Error,
            format!(
                "panic-hygiene ratchet: {count} FT204 finding(s), committed baseline is \
                 {baseline} — fix the new `.unwrap()`/`.expect()`/`panic!` sites (or lower \
                 the baseline after cleaning up; it must never increase)"
            ),
        ));
        scan.set.reports.push(report);
    }
}

/// Recursively collects workspace-relative `.rs` paths under `dir`,
/// skipping [`SKIP_DIRS`].
fn discover(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                discover(root, &path, out)?;
            }
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel_to_slash(rel));
            }
        }
    }
    Ok(())
}

/// Renders a relative path with forward slashes on every platform.
fn rel_to_slash(rel: &Path) -> String {
    rel.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_the_workspace_shapes() {
        use FileClass::*;
        for (path, want) in [
            ("crates/engine/src/coordinator.rs", Some(Lib)),
            ("crates/core/src/sync.rs", Some(Lib)),
            ("crates/obs/src/sync.rs", Some(Lib)),
            ("crates/bench/src/fig13.rs", Some(Exempt)),
            ("crates/bench/benches/fig13_pruning.rs", Some(Exempt)),
            ("crates/bench/src/main.rs", Some(Exempt)),
            ("crates/engine/tests/recovery_proptests.rs", Some(Exempt)),
            ("examples/conformance.rs", Some(Exempt)),
            ("src/bin/ftpde.rs", Some(Exempt)),
            ("src/lib.rs", Some(Lib)),
            ("build.rs", Some(Exempt)),
            ("tests/end_to_end.rs", Some(Exempt)),
            ("vendor/serde/src/lib.rs", None),
            ("target/debug/build/foo.rs", None),
            ("crates/analysis/tests/fixtures/ft205.rs", None),
            ("README.md", None),
        ] {
            assert_eq!(classify(path), want, "{path}");
        }
    }

    #[test]
    fn scan_renders_rollup_and_gates_on_errors() {
        let mut bad = Report::new("crates/x/src/lib.rs");
        bad.push(
            Diagnostic::new(Code::FT205, Severity::Error, "rename without fsync")
                .at_line("crates/x/src/lib.rs", 3),
        );
        let scan = SourceScan { set: ReportSet::new(vec![bad]), files_scanned: 10 };
        assert!(!scan.is_clean());
        let text = scan.render();
        assert!(text.contains("10 file(s) scanned"), "{text}");
        assert!(text.contains("FT205 [error]: 1 finding(s)"), "{text}");
        assert!(text.contains("crates/x/src/lib.rs:3"), "{text}");
    }
}
