//! Source-discipline analyzer: FT2xx lints over the workspace's Rust
//! sources.
//!
//! The plan linter (`FT0xx`) checks what the optimizer *produces* and
//! the conformance checker (`FT1xx`) checks what the engine *did*; this
//! module closes the triangle by checking what the code *is*. The
//! paper's recovery contract (§2.2) and every cost term in Eq. 5-7
//! assume operators re-execute deterministically after a failure — and
//! the loom/TSan CI jobs only verify synchronization that actually
//! routes through the `sync` shim modules. Neither assumption is worth
//! much if any file can call `Instant::now()` or grab a
//! `std::sync::Mutex` directly, so this analyzer makes the discipline
//! *static*: a dependency-free, comment/string-aware tokenizer
//! ([`tokens`]) feeds coded passes ([`passes`], `FT201`…`FT207`) that
//! run over every source file in the workspace. The sanctioned escape
//! hatch is an inline `// ftpde-allow(FT2xx: reason)` comment, itself
//! audited: a suppression that is malformed or matches nothing is an
//! error (FT207).
//!
//! `ftpde lint --source` is the CLI face and CI gate; see `DESIGN.md`
//! §14 for the full code table (generated from [`crate::codes`]).

pub mod callgraph;
pub mod items;
pub mod locks;
pub mod passes;
pub mod tokens;

use std::path::Path;

use crate::diag::{Code, Diagnostic, Report, ReportSet, Severity};
pub use locks::LockGraph;

/// What kind of code a file is — which discipline it owes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library code: the full discipline (FT201-FT206).
    Lib,
    /// A `sync` shim module: the sanctioned home of raw primitives and
    /// the clock seam; exempt from FT201/FT202.
    Shim,
    /// Benchmark-harness code (`crates/bench`): measures wall time by
    /// design, so exempt from FT202 but not from FT201.
    Bench,
    /// Binary/CLI/build-script code: single-threaded driver code that
    /// legitimately sleeps, probes and panics; FT206/FT207 only.
    Bin,
    /// Test, example or bench-target code: FT206/FT207 only.
    Test,
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
    if file == "sync.rs" || parts.iter().rev().skip(1).any(|&p| p == "sync") {
        return Some(FileClass::Shim);
    }
    if parts.iter().any(|&p| p == "tests" || p == "examples" || p == "benches") {
        return Some(FileClass::Test);
    }
    if parts.contains(&"bin") || file == "main.rs" || file == "build.rs" {
        return Some(FileClass::Bin);
    }
    if rel_path.starts_with("crates/bench/") {
        return Some(FileClass::Bench);
    }
    Some(FileClass::Lib)
}

/// Lints one file's source text under an explicit classification —
/// the pure core used by both the workspace scan and the fixture tests.
pub fn lint_str(rel_path: &str, class: FileClass, src: &str) -> Report {
    passes::lint_tokens(rel_path, class, &tokens::tokenize(src))
}

/// One in-memory source file fed to [`lint_sources`].
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub rel: String,
    pub class: FileClass,
    pub text: String,
}

/// The result of a whole-workspace scan.
#[derive(Debug, Clone)]
pub struct SourceScan {
    /// Per-file reports, only for files with findings; subjects are
    /// workspace-relative paths, deterministically ordered.
    pub set: ReportSet,
    /// Total files tokenized and linted (clean files included).
    pub files_scanned: usize,
    /// The workspace lock-order graph observed by the FT21x analysis
    /// (see [`locks`]); empty when no ordered acquisitions exist.
    pub lock_graph: LockGraph,
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
    let mut sources = Vec::new();
    for rel in &files {
        let Some(class) = classify(rel) else { continue };
        let text = std::fs::read_to_string(root.join(rel))?;
        sources.push(SourceFile { rel: rel.clone(), class, text });
    }
    let mut scan = lint_sources(&sources);
    apply_ft204_ratchet(root, &mut scan);
    Ok(scan)
}

/// Lints a set of in-memory files as one unit: the per-file passes
/// plus the cross-file FT21x concurrency analysis over the library
/// subset. This is the pure core of [`lint_workspace`], also used by
/// the fixture tests.
pub fn lint_sources(files: &[SourceFile]) -> SourceScan {
    let tokenized: Vec<tokens::Tokenized> =
        files.iter().map(|f| tokens::tokenize(&f.text)).collect();
    let mut lints: Vec<passes::FileLint> =
        files.iter().zip(&tokenized).map(|(f, tz)| passes::collect(&f.rel, f.class, tz)).collect();

    let lib: Vec<(usize, &str, &[tokens::Tok])> = files
        .iter()
        .enumerate()
        .filter(|(_, f)| f.class == FileClass::Lib)
        .map(|(i, f)| (i, f.rel.as_str(), tokenized[i].toks.as_slice()))
        .collect();
    let analysis = locks::analyze(&lib);
    for finding in analysis.findings {
        lints[finding.file].push_finding(finding.diag);
    }

    let mut reports: Vec<Report> = lints
        .into_iter()
        .map(passes::FileLint::finish)
        .filter(|r| !r.diagnostics.is_empty())
        .collect();
    reports.sort_by(|a, b| a.subject.cmp(&b.subject));
    SourceScan {
        set: ReportSet::new(reports),
        files_scanned: files.len(),
        lock_graph: analysis.graph,
    }
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
            ("crates/engine/src/sync.rs", Some(Shim)),
            ("crates/store/src/sync.rs", Some(Shim)),
            ("crates/core/src/sync.rs", Some(Shim)),
            ("crates/obs/src/sync/clock.rs", Some(Shim)),
            ("crates/bench/src/store_micro.rs", Some(Bench)),
            ("crates/bench/benches/store_micro.rs", Some(Test)),
            ("crates/engine/tests/loom.rs", Some(Test)),
            ("examples/conformance.rs", Some(Test)),
            ("src/bin/ftpde.rs", Some(Bin)),
            ("src/lib.rs", Some(Lib)),
            ("build.rs", Some(Bin)),
            ("tests/end_to_end.rs", Some(Test)),
            ("vendor/loom/src/lib.rs", None),
            ("target/debug/build/foo.rs", None),
            ("crates/analysis/tests/fixtures/ft201.rs", None),
            ("README.md", None),
        ] {
            assert_eq!(classify(path), want, "{path}");
        }
    }

    #[test]
    fn scan_renders_rollup_and_gates_on_errors() {
        let mut bad = Report::new("crates/x/src/lib.rs");
        bad.push(
            Diagnostic::new(Code::FT201, Severity::Error, "std::sync outside shim")
                .at_line("crates/x/src/lib.rs", 3),
        );
        let scan = SourceScan {
            set: ReportSet::new(vec![bad]),
            files_scanned: 10,
            lock_graph: LockGraph::default(),
        };
        assert!(!scan.is_clean());
        let text = scan.render();
        assert!(text.contains("10 file(s) scanned"), "{text}");
        assert!(text.contains("FT201 [error]: 1 finding(s)"), "{text}");
        assert!(text.contains("crates/x/src/lib.rs:3"), "{text}");
    }
}
