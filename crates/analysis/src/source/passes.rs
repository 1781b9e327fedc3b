//! The FT2xx source-discipline passes.
//!
//! Each pass walks the token stream of one file (see
//! [`super::tokens`]) and reports what it finds. Passes run on library
//! code only ([`FileClass::Lib`]); tests, examples, benches and binaries
//! are exempt.

use crate::diag::{Code, Diagnostic, Report};
use crate::source::items;
use crate::source::tokens::Tok;
use crate::source::FileClass;

/// Lints one tokenized file. `rel_path` uses forward slashes and is
/// workspace-relative (it scopes the store pass, FT205).
pub fn lint_tokens(rel_path: &str, class: FileClass, toks: &[Tok]) -> Report {
    let mut report = Report::new(rel_path);
    if class != FileClass::Lib {
        return report;
    }
    let test_ranges = test_line_ranges(toks);
    let in_test = |line: u32| test_ranges.iter().any(|&(a, b)| (a..=b).contains(&line));
    let mut push = |code: Code, line: u32, message: String| {
        report
            .push(Diagnostic::new(code, code.default_severity(), message).at_line(rel_path, line));
    };

    // FT204: panicking calls in library code (hygiene ratchet), one
    // finding per line at most.
    let mut last_line = None;
    for i in 0..toks.len() {
        let line = toks[i].line();
        if in_test(line) || last_line == Some(line) {
            continue;
        }
        let message = if toks[i].is_punct('.')
            && toks.get(i + 1).is_some_and(|t| t.is_ident("unwrap") || t.is_ident("expect"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
        {
            let what = toks[i + 1].ident().unwrap_or_default();
            format!("`.{what}(…)` in library code can panic a worker")
        } else if toks[i].is_ident("panic") && toks.get(i + 1).is_some_and(|t| t.is_punct('!')) {
            "`panic!` in library code tears down a worker thread".into()
        } else {
            continue;
        };
        last_line = Some(line);
        push(Code::FT204, line, message);
    }

    // FT205: fsync pairing on the store commit path — any function that
    // renames must fsync in the same function.
    if rel_path.starts_with("crates/store/") {
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
    report
}

/// Line ranges covered by `#[test]` / `#[cfg(test)]`-style items: any
/// attribute run containing the bare ident `test` exempts the item it
/// decorates (attribute lines through the end of the item's `{…}` block
/// or its terminating `;`).
fn test_line_ranges(toks: &[Tok]) -> Vec<(u32, u32)> {
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
    fn ft204_is_a_lint_and_skips_tests() {
        let src = "fn f() {\n  x.unwrap();\n  y.expect(\"msg\");\n  panic!(\"boom\");\n}\n\
                   #[test]\nfn t() { z.unwrap(); }";
        let r = lint(FileClass::Lib, src);
        assert_eq!(codes(&r), vec![Code::FT204, Code::FT204, Code::FT204]);
        assert!(r.diagnostics.iter().all(|d| d.severity == Severity::Lint));
        assert!(r.is_clean(), "FT204 must never gate");
        // Findings dedup per line: two unwraps on one line are one
        // diagnostic.
        let r = lint(FileClass::Lib, "fn f() { a.unwrap(); b.unwrap(); }");
        assert_eq!(codes(&r), vec![Code::FT204]);
        // Exempt code owes no discipline.
        assert_eq!(codes(&lint(FileClass::Exempt, src)), vec![]);
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
        let r = lint_tokens("crates/obs/src/export.rs", FileClass::Lib, &tokenize(bad));
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
    fn mentions_in_comments_and_strings_do_not_fire() {
        let src = "// x.unwrap() and panic!() discussed here\n\
                   const DOC: &str = \"y.expect(msg)\";\nfn f() {}";
        assert_eq!(codes(&lint(FileClass::Lib, src)), vec![]);
    }
}
