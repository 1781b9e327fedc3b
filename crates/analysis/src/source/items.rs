//! Item extraction: `fn` bodies and their enclosing `impl` types.
//!
//! The concurrency passes ([`super::locks`]) reason per function: which
//! locks a function acquires, what it calls, what it does while a guard
//! is live. This module turns the flat token stream of one file into
//! that function inventory. It is *not* a parser — it brace-matches
//! `fn` bodies and `impl` blocks and records, for each function, an
//! `impl`-qualified name (`DiskBackend::get`) that the call-graph
//! resolver uses to disambiguate `Type::method(…)` call paths.
//!
//! Known simplifications (shared with the rest of the analyzer and
//! documented in DESIGN §16): macros are opaque, `trait` default bodies
//! qualify under the trait's name, and a nested `fn` is extracted as
//! its own item — [`own_body`] lets a caller walk a function's tokens
//! *without* descending into nested `fn` bodies, which do not execute
//! when the outer function runs.

use crate::source::tokens::Tok;

/// One `fn` item found in a file.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Unqualified function name.
    pub name: String,
    /// `Type::name` when declared inside `impl Type` (or
    /// `impl Trait for Type`); `name` for free functions.
    pub qual: String,
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
    let impls = impl_ranges(toks);
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
        let line = toks[i].line();
        let qual = impls
            .iter()
            .find(|im| im.start < start && end <= im.end)
            .map_or_else(|| name.to_string(), |im| format!("{}::{name}", im.ty));
        out.push(FnItem { name: name.to_string(), qual, line, start, end });
    }
    out
}

/// Walks the body tokens of `fns[idx]`, skipping the bodies of any
/// `fn` items nested inside it.
pub fn own_body(fns: &[FnItem], idx: usize) -> impl Iterator<Item = usize> + '_ {
    let me = &fns[idx];
    let nested: Vec<(usize, usize)> = fns
        .iter()
        .enumerate()
        .filter(|&(j, f)| j != idx && f.start > me.start && f.end <= me.end)
        .map(|(_, f)| (f.start, f.end))
        .collect();
    (me.start..me.end).filter(move |&i| !nested.iter().any(|&(a, b)| (a..b).contains(&i)))
}

/// An `impl` block: its self-type name and body token extent.
struct ImplRange {
    ty: String,
    start: usize,
    end: usize,
}

/// Finds `impl` blocks and the name of each one's self type: the last
/// angle-depth-0 ident of the header, restarting after a top-level
/// `for` (so `impl fmt::Display for DiskBackend` yields `DiskBackend`
/// and `impl Foo<T>` yields `Foo`), stopping at `where`.
fn impl_ranges(toks: &[Tok]) -> Vec<ImplRange> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let is_impl = toks[i].is_ident("impl");
        let is_trait = toks[i].is_ident("trait");
        if !is_impl && !is_trait {
            continue;
        }
        let mut angle = 0i32;
        // A trait's name is the ident right after `trait` (supertrait
        // bounds follow it); an impl's self type needs the full scan.
        let mut ty: Option<&str> =
            if is_trait { toks.get(i + 1).and_then(Tok::ident) } else { None };
        let mut j = i + 1;
        let start = loop {
            match toks.get(j) {
                None => break None,
                Some(t) if t.is_punct('<') => angle += 1,
                Some(t) if t.is_punct('>') => angle -= 1,
                Some(t) if t.is_punct('{') && angle <= 0 => break Some(j),
                Some(t) if t.is_punct(';') && angle <= 0 => break None,
                Some(t) if angle == 0 && t.is_ident("where") => {
                    // Type name is settled; scan on to the body brace.
                    j += 1;
                    loop {
                        match toks.get(j) {
                            None => break,
                            Some(t) if t.is_punct('{') => break,
                            Some(t) if t.is_punct(';') => break,
                            Some(_) => j += 1,
                        }
                    }
                    break toks.get(j).filter(|t| t.is_punct('{')).map(|_| j);
                }
                Some(t) if is_impl && angle == 0 && t.is_ident("for") => ty = None,
                Some(t) if is_impl && angle == 0 => {
                    if let Some(name) = t.ident() {
                        ty = Some(name);
                    }
                }
                Some(_) => {}
            }
            j += 1;
        };
        let Some(start) = start else { continue };
        let Some(ty) = ty else { continue };
        out.push(ImplRange { ty: ty.to_string(), start, end: match_brace(toks, start) });
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

    fn quals(src: &str) -> Vec<String> {
        let tz = tokenize(src);
        extract(&tz.toks).into_iter().map(|f| f.qual).collect()
    }

    #[test]
    fn free_and_impl_fns_are_qualified() {
        let src = "fn free() {}\n\
                   impl DiskBackend { fn get(&self) {} fn put(&mut self) {} }\n\
                   impl fmt::Display for DiskBackend { fn fmt(&self) {} }\n\
                   impl<T: Clone> Cache<T> { fn insert(&self) {} }";
        assert_eq!(
            quals(src),
            vec![
                "free",
                "DiskBackend::get",
                "DiskBackend::put",
                "DiskBackend::fmt",
                "Cache::insert"
            ]
        );
    }

    #[test]
    fn bodyless_decls_and_where_clauses() {
        let src = "trait T { fn sig(&self); fn dflt(&self) { helper() } }\n\
                   impl<K> Map<K> where K: Ord { fn len(&self) -> usize { 0 } }";
        assert_eq!(quals(src), vec!["T::dflt", "Map::len"]);
    }

    #[test]
    fn own_body_skips_nested_fns() {
        let src = "fn outer() { a(); fn inner() { b(); } c(); }";
        let tz = tokenize(src);
        let fns = extract(&tz.toks);
        assert_eq!(fns.len(), 2);
        let outer_idents: Vec<&str> =
            own_body(&fns, 0).filter_map(|i| tz.toks[i].ident()).collect();
        assert!(outer_idents.contains(&"a") && outer_idents.contains(&"c"), "{outer_idents:?}");
        assert!(!outer_idents.contains(&"b"), "{outer_idents:?}");
    }

    #[test]
    fn generics_in_signatures_do_not_break_body_detection() {
        let src = "fn max<T: PartialOrd>(a: T, b: T) -> T { if a > b { a } else { b } }";
        let fns = extract(&tokenize(src).toks);
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "max");
    }

    #[test]
    fn array_types_in_signatures_do_not_end_the_declaration() {
        let src = "pub fn figure1_clusters() -> [(&'static str, ClusterConfig); 4] { [] }\n\
                   fn row<const N: usize>(vals: [Value; N]) -> Row { Row(vals) }";
        assert_eq!(quals(src), vec!["figure1_clusters", "row"]);
    }
}
