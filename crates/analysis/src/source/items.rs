//! Item extraction: `fn` bodies.
//!
//! The store pass (FT205) reasons per function: a function that renames
//! must also fsync. This module turns the flat token stream of one file
//! into that function inventory. It is *not* a parser — it brace-matches
//! `fn` bodies. Macros are opaque, and a nested `fn` is extracted as its
//! own item (its body is also part of the outer function's).

use crate::source::tokens::Tok;

/// One `fn` item found in a file.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Body token range `[start, end)` — `start` indexes the opening
    /// `{`, `end` is one past the matching `}`.
    pub start: usize,
    pub end: usize,
}

/// Extracts every `fn` with a body (bodyless trait declarations are
/// skipped), in source order.
pub fn extract(toks: &[Tok]) -> Vec<FnItem> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("fn") {
            continue;
        }
        let Some(name) = toks.get(i + 1).and_then(Tok::ident) else { continue };
        // Scan to the body's `{`; a `;` first means a bodyless decl.
        // Skip `<…>` generics, `(…)` params and `[T; N]` array types so
        // a default argument, where-clause brace or array length cannot
        // fool the scan.
        let mut j = i + 2;
        let (mut angle, mut paren, mut bracket) = (0i32, 0i32, 0i32);
        let start = loop {
            match toks.get(j) {
                None => break None,
                Some(t) if t.is_punct('<') => angle += 1,
                Some(t) if t.is_punct('>') => angle -= 1,
                Some(t) if t.is_punct('(') => paren += 1,
                Some(t) if t.is_punct(')') => paren -= 1,
                Some(t) if t.is_punct('[') => bracket += 1,
                Some(t) if t.is_punct(']') => bracket -= 1,
                Some(t) if t.is_punct('{') && angle <= 0 && paren == 0 && bracket == 0 => {
                    break Some(j)
                }
                Some(t) if t.is_punct(';') && paren == 0 && bracket == 0 => break None,
                Some(_) => {}
            }
            j += 1;
        };
        let Some(start) = start else { continue };
        let end = match_brace(toks, start);
        out.push(FnItem { name: name.to_string(), line: toks[i].line(), start, end });
    }
    out
}

/// Index one past the `}` matching the `{` at `open`.
fn match_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    loop {
        match toks.get(j) {
            None => break j,
            Some(t) => {
                if t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        break j + 1;
                    }
                }
                j += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::tokens::tokenize;

    fn names(src: &str) -> Vec<String> {
        extract(&tokenize(src)).into_iter().map(|f| f.name).collect()
    }

    #[test]
    fn free_impl_and_nested_fns_are_extracted() {
        let src = "fn free() {}\n\
                   impl DiskBackend { fn get(&self) {} fn put(&mut self) {} }\n\
                   fn outer() { a(); fn inner() { b(); } c(); }";
        assert_eq!(names(src), vec!["free", "get", "put", "outer", "inner"]);
    }

    #[test]
    fn bodyless_decls_and_where_clauses() {
        let src = "trait T { fn sig(&self); fn dflt(&self) { helper() } }\n\
                   impl<K> Map<K> where K: Ord { fn len(&self) -> usize { 0 } }";
        assert_eq!(names(src), vec!["dflt", "len"]);
    }

    #[test]
    fn generics_in_signatures_do_not_break_body_detection() {
        let src = "fn max<T: PartialOrd>(a: T, b: T) -> T { if a > b { a } else { b } }";
        let fns = extract(&tokenize(src));
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "max");
        // The body spans from its `{` to one past its `}`.
        let toks = tokenize(src);
        assert!(toks[fns[0].start].is_punct('{') && toks[fns[0].end - 1].is_punct('}'));
    }

    #[test]
    fn array_types_in_signatures_do_not_end_the_declaration() {
        let src = "pub fn figure1_clusters() -> [(&'static str, ClusterConfig); 4] { [] }\n\
                   fn row<const N: usize>(vals: [Value; N]) -> Row { Row(vals) }";
        assert_eq!(names(src), vec!["figure1_clusters", "row"]);
    }
}
