//! The FT20x source-discipline passes.
//!
//! Each pass walks the token stream of one file (see
//! [`super::tokens`]) and emits candidate findings; the driver then
//! applies `// ftpde-allow(FT2xx: reason)` suppressions and reports any
//! suppression that is malformed or matched nothing (FT207). Passes are
//! scoped by [`FileClass`] — the discipline a file owes depends on what
//! kind of code it is (library, bench harness, or exempt).

use crate::diag::{Code, Diagnostic, Report};
use crate::source::items;
use crate::source::tokens::{Comment, Tok, Tokenized};
use crate::source::FileClass;

/// Lints one tokenized file. `rel_path` uses forward slashes and is
/// workspace-relative (it scopes the store pass, FT205).
pub fn lint_tokens(rel_path: &str, class: FileClass, tz: &Tokenized) -> Report {
    collect(rel_path, class, tz).finish()
}

/// The per-file passes plus parsed suppressions, held open so the
/// cross-file concurrency analysis ([`super::locks`]) can push its
/// findings through the same `ftpde-allow` machinery before
/// [`FileLint::finish`] settles the report.
pub struct FileLint {
    rel_path: String,
    allows: Vec<Allow>,
    findings: Vec<Diagnostic>,
    report: Report,
}

impl FileLint {
    /// Adds a candidate finding; suppressions apply at [`Self::finish`].
    pub fn push_finding(&mut self, d: Diagnostic) {
        self.findings.push(d);
    }

    /// Applies suppressions and reports unused ones (FT207).
    pub fn finish(self) -> Report {
        let Self { rel_path, mut allows, findings, mut report } = self;
        // An allow matches findings of its code on the same line or the
        // line below it. FT207 itself is not suppressible.
        for d in findings {
            let line = d.line.unwrap_or(0);
            let suppressed = allows.iter_mut().any(|a| {
                a.malformed.is_none()
                    && a.code == Some(d.code)
                    && (a.line == line || a.line + 1 == line)
                    && {
                        a.used = true;
                        true
                    }
            });
            if !suppressed {
                report.push(d);
            }
        }

        // FT207: well-formed suppressions that matched nothing are rot.
        for a in &allows {
            if a.malformed.is_none() && !a.used {
                report.push(
                    Diagnostic::new(
                        Code::FT207,
                        Code::FT207.default_severity(),
                        format!(
                            "unused suppression `ftpde-allow({}: …)` — the violation it \
                             excused is gone; delete the comment",
                            a.code.map_or("?", Code::as_str),
                        ),
                    )
                    .at_line(&rel_path, a.line),
                );
            }
        }
        report
    }
}

/// Runs the single-file passes (FT201, FT204, FT205) and parses
/// suppressions, without settling them — see [`FileLint`].
pub fn collect(rel_path: &str, class: FileClass, tz: &Tokenized) -> FileLint {
    let mut report = Report::new(rel_path);
    let toks = &tz.toks[..];
    let test_ranges = test_line_ranges(toks);
    let in_test = |line: u32| test_ranges.iter().any(|&(a, b)| (a..=b).contains(&line));

    let allows = parse_allows(&tz.comments);
    for a in &allows {
        if let Some(msg) = &a.malformed {
            report.push(
                Diagnostic::new(Code::FT207, Code::FT207.default_severity(), msg.clone())
                    .at_line(rel_path, a.line),
            );
        }
    }

    let mut findings: Vec<Diagnostic> = Vec::new();
    let mut push = |code: Code, line: u32, message: String| {
        findings
            .push(Diagnostic::new(code, code.default_severity(), message).at_line(rel_path, line));
    };

    // FT201/FT204 are single-token-window scans.
    let mut last: Option<(Code, u32)> = None; // per-line dedup of path matches
    for i in 0..toks.len() {
        let line = toks[i].line();
        if in_test(line) {
            continue;
        }
        let mut hit = |code: Code, msg: String| {
            if last != Some((code, line)) {
                last = Some((code, line));
                push(code, line, msg);
            }
        };

        // FT201: sync primitives outside a shim. Library and bench code;
        // shims are the sanctioned home, binaries are single-threaded
        // driver code, tests exercise whatever they like.
        if matches!(class, FileClass::Lib | FileClass::Bench) {
            if path_at(toks, i, &["std", "sync"]) {
                hit(
                    Code::FT201,
                    "direct `std::sync` outside a sync shim module — route through \
                     `crate::sync` (loom-modeled) or `crate::sync::plain`"
                        .into(),
                );
            } else if path_at(toks, i, &["std", "thread"]) {
                hit(
                    Code::FT201,
                    "direct `std::thread` outside a sync shim module — route through \
                     `crate::sync::plain::thread`"
                        .into(),
                );
            } else if path_head(toks, i, "parking_lot") {
                hit(
                    Code::FT201,
                    "direct `parking_lot` outside a sync shim module — route through \
                     `crate::sync` (loom-modeled) or `crate::sync::plain`"
                        .into(),
                );
            } else if path_head(toks, i, "loom") {
                hit(
                    Code::FT201,
                    "direct `loom` outside a sync shim module — the shim owns the \
                     `--cfg loom` switch"
                        .into(),
                );
            }
        }

        // FT204: panicking calls in library code (hygiene ratchet).
        if class == FileClass::Lib {
            if toks[i].is_punct('.')
                && toks.get(i + 1).is_some_and(|t| t.is_ident("unwrap") || t.is_ident("expect"))
                && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
            {
                let what = toks[i + 1].ident().unwrap_or_default();
                hit(Code::FT204, format!("`.{what}(…)` in library code can panic a worker"));
            } else if toks[i].is_ident("panic") && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
            {
                hit(Code::FT204, "`panic!` in library code tears down a worker thread".into());
            }
        }
    }

    // FT205: fsync pairing on the store commit path — any function that
    // renames must fsync in the same function.
    if class == FileClass::Lib && rel_path.starts_with("crates/store/") {
        for f in items::extract(toks).into_iter().filter(|f| !in_test(f.line)) {
            let body = &toks[f.start..f.end];
            let has_rename = body.iter().any(|t| t.ident() == Some("rename"));
            let has_sync = body
                .iter()
                .any(|t| t.ident() == Some("sync_all") || t.ident() == Some("sync_data"));
            if has_rename && !has_sync {
                push(
                    Code::FT205,
                    f.line,
                    format!(
                        "fn `{}` renames without `sync_all`/`sync_data` in the same \
                         function — a crash can commit a torn file",
                        f.name
                    ),
                );
            }
        }
    }

    FileLint { rel_path: rel_path.to_string(), allows, findings, report }
}

/// Matches `seg0 :: seg1` starting at token `i`.
fn path_at(toks: &[Tok], i: usize, segs: &[&str; 2]) -> bool {
    toks[i].is_ident(segs[0])
        && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 3).is_some_and(|t| t.is_ident(segs[1]))
}

/// Matches `name ::` starting at token `i` — a crate-path use of `name`
/// (a bare mention, e.g. inside `#[cfg(loom)]`, does not match).
fn path_head(toks: &[Tok], i: usize, name: &str) -> bool {
    toks[i].is_ident(name)
        && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
}

/// A parsed `// ftpde-allow(FT2xx: reason)` suppression comment.
#[derive(Debug)]
struct Allow {
    line: u32,
    code: Option<Code>,
    /// `Some(message)` when the comment is recognizably an allow but
    /// does not parse (unknown code, missing reason, bad shape).
    malformed: Option<String>,
    used: bool,
}

/// Extracts suppressions from the comment list. A suppression must be
/// the comment's entire content (`// ftpde-allow(FT2xx: reason)`) — a
/// doc comment that merely *mentions* the syntax is prose, not an
/// allow. A comment that leads with `ftpde-allow` but does not parse is
/// an FT207 finding: there is no silent middle ground.
fn parse_allows(comments: &[Comment]) -> Vec<Allow> {
    let mut out = Vec::new();
    for c in comments {
        // Strip the `//` / `/*` / doc-comment introducer.
        let body = c.text.trim_start_matches(['/', '*', '!']).trim_start();
        if !body.starts_with("ftpde-allow") {
            continue;
        }
        let rest = &body["ftpde-allow".len()..];
        let parsed = (|| -> Result<Code, String> {
            let inner = rest
                .strip_prefix('(')
                .ok_or("expected `ftpde-allow(FT2xx: reason)`")?
                .split_once(')')
                .ok_or("missing closing `)`")?
                .0;
            let (code, reason) =
                inner.split_once(':').ok_or("missing `:` between code and reason")?;
            let code = crate::codes::parse(code)
                .ok_or_else(|| format!("unknown code {:?}", code.trim()))?;
            if reason.trim().is_empty() {
                return Err("empty reason".into());
            }
            if code == Code::FT207 {
                return Err("FT207 (suppression hygiene) cannot itself be suppressed".into());
            }
            Ok(code)
        })();
        match parsed {
            Ok(code) => {
                out.push(Allow { line: c.line, code: Some(code), malformed: None, used: false });
            }
            Err(why) => out.push(Allow {
                line: c.line,
                code: None,
                malformed: Some(format!("malformed `ftpde-allow` suppression: {why}")),
                used: false,
            }),
        }
    }
    out
}

/// Line ranges covered by `#[test]` / `#[cfg(test)]`-style items: any
/// attribute run containing the bare ident `test` exempts the item it
/// decorates (attribute lines through the end of the item's `{…}` block
/// or its terminating `;`).
pub(crate) fn test_line_ranges(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        // An outer attribute: `#` `[` … `]` (skip inner `#![…]`).
        if !(toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('['))) {
            i += 1;
            continue;
        }
        let attr_start_line = toks[i].line();
        let mut is_test = false;
        // Walk the run of consecutive attributes.
        while toks.get(i).is_some_and(|t| t.is_punct('#'))
            && toks.get(i + 1).is_some_and(|t| t.is_punct('['))
        {
            let mut depth = 0usize;
            i += 1; // at `[`
            loop {
                let Some(t) = toks.get(i) else { return ranges };
                if t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                } else if t.is_ident("test") {
                    is_test = true;
                }
                i += 1;
            }
        }
        if !is_test {
            continue;
        }
        // Find the decorated item's extent: a `;` before any brace ends
        // it; otherwise the matching `}` of its first `{` does.
        let mut depth = 0usize;
        let mut end_line = attr_start_line;
        while let Some(t) = toks.get(i) {
            end_line = t.line();
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    i += 1;
                    break;
                }
            } else if t.is_punct(';') && depth == 0 {
                i += 1;
                break;
            }
            i += 1;
        }
        ranges.push((attr_start_line, end_line));
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use crate::source::tokens::tokenize;

    fn lint(class: FileClass, src: &str) -> Report {
        lint_tokens("crates/demo/src/lib.rs", class, &tokenize(src))
    }

    fn codes(r: &Report) -> Vec<Code> {
        r.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn ft201_fires_in_lib_and_bench_but_not_in_exempt_files() {
        let src = "use std::sync::Mutex;";
        assert_eq!(codes(&lint(FileClass::Lib, src)), vec![Code::FT201]);
        assert_eq!(codes(&lint(FileClass::Bench, src)), vec![Code::FT201]);
        assert_eq!(codes(&lint(FileClass::Exempt, src)), vec![]);
        let test_block = "#[cfg(test)]\nmod tests { use std::sync::Mutex; }";
        assert_eq!(codes(&lint(FileClass::Lib, test_block)), vec![]);
    }

    #[test]
    fn ft201_catches_thread_parking_lot_and_loom_paths() {
        for src in ["std::thread::spawn(f);", "use parking_lot::RwLock;", "loom::model(|| {});"] {
            assert_eq!(codes(&lint(FileClass::Lib, src)), vec![Code::FT201], "{src}");
        }
        // A cfg mention of loom is not a path use.
        assert_eq!(codes(&lint(FileClass::Lib, "#[cfg(not(loom))]\nfn f() {}")), vec![]);
    }

    #[test]
    fn ft204_is_a_lint_and_skips_tests() {
        let src = "fn f() {\n  x.unwrap();\n  y.expect(\"msg\");\n  panic!(\"boom\");\n}\n\
                   #[test]\nfn t() { z.unwrap(); }";
        let r = lint(FileClass::Lib, src);
        assert_eq!(codes(&r), vec![Code::FT204, Code::FT204, Code::FT204]);
        assert!(r.diagnostics.iter().all(|d| d.severity == Severity::Lint));
        assert!(r.is_clean(), "FT204 must never gate");
        // Findings dedup per (code, line): two unwraps on one line are
        // one diagnostic.
        let r = lint(FileClass::Lib, "fn f() { a.unwrap(); b.unwrap(); }");
        assert_eq!(codes(&r), vec![Code::FT204]);
    }

    #[test]
    fn ft205_requires_fsync_next_to_rename() {
        let bad = "fn commit(&self) { fs::rename(a, b); }";
        let good = "fn commit(&self) { f.sync_all(); fs::rename(a, b); }";
        let r = lint_tokens("crates/store/src/disk.rs", FileClass::Lib, &tokenize(bad));
        assert_eq!(codes(&r), vec![Code::FT205]);
        let r = lint_tokens("crates/store/src/disk.rs", FileClass::Lib, &tokenize(good));
        assert_eq!(codes(&r), vec![]);
        // Outside the store crate the pass is silent.
        let r = lint_tokens("crates/obs/src/flight.rs", FileClass::Lib, &tokenize(bad));
        assert_eq!(codes(&r), vec![]);
    }

    #[test]
    fn ft205_sees_functions_with_array_parameters() {
        // The `;` inside `[u8; 4]` is part of the signature, not the end
        // of a bodyless declaration.
        let src = "fn torn(buf: [u8; 4], a: &str, b: &str) { fs::rename(a, b); }";
        let r = lint_tokens("crates/store/src/disk.rs", FileClass::Lib, &tokenize(src));
        assert_eq!(codes(&r), vec![Code::FT205]);
    }

    #[test]
    fn allow_suppresses_same_and_next_line_only() {
        let same = "use std::sync::Mutex; // ftpde-allow(FT201: justified here)";
        assert_eq!(codes(&lint(FileClass::Lib, same)), vec![]);
        let above = "// ftpde-allow(FT201: justified here)\nuse std::sync::Mutex;";
        assert_eq!(codes(&lint(FileClass::Lib, above)), vec![]);
        let far = "// ftpde-allow(FT201: too far away)\n\nuse std::sync::Mutex;";
        let r = lint(FileClass::Lib, far);
        // The violation survives and the allow is reported unused.
        assert_eq!(codes(&r), vec![Code::FT201, Code::FT207]);
    }

    #[test]
    fn ft207_flags_unused_and_malformed_allows() {
        let unused = "// ftpde-allow(FT201: nothing here is a sync primitive)\nfn f() {}";
        assert_eq!(codes(&lint(FileClass::Lib, unused)), vec![Code::FT207]);
        for bad in [
            "// ftpde-allow(FT999: unknown code)\nfn f() {}",
            "// ftpde-allow(FT201)\nuse std::sync::Mutex;",
            "// ftpde-allow(FT201: )\nuse std::sync::Mutex;",
            "// ftpde-allow FT201: no parens\nfn f() {}",
        ] {
            let r = lint(FileClass::Lib, bad);
            assert!(codes(&r).contains(&Code::FT207), "{bad}: {:?}", codes(&r));
        }
    }

    #[test]
    fn wrong_code_allow_does_not_suppress() {
        let src = "// ftpde-allow(FT204: wrong code)\nuse std::sync::Mutex;";
        let r = lint(FileClass::Lib, src);
        assert_eq!(codes(&r), vec![Code::FT201, Code::FT207]);
    }

    #[test]
    fn mentions_in_comments_and_strings_do_not_fire() {
        let src = "// std::sync::Mutex and Instant::now() discussed here\n\
                   const DOC: &str = \"std::thread::spawn\";\nfn f() {}";
        assert_eq!(codes(&lint(FileClass::Lib, src)), vec![]);
    }
}
