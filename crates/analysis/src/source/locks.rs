//! Lock-site dataflow and the FT21x concurrency-discipline passes.
//!
//! PR 8 made every lock acquisition route through the three-face sync
//! shims (`engine::sync` / `store::sync` / `obs::sync`), which turns
//! `.lock()` in library code into a reliable chokepoint: any
//! `field.lock()` call *is* a shim-mutex acquisition. This module
//! exploits that to run a guard-liveness dataflow over each library
//! function and, with the conservative call graph
//! ([`super::callgraph`]), a workspace-wide lock-order analysis:
//!
//! * **FT213** — re-entrant acquisition of a lock already held
//!   (directly, or through a resolved call chain). The shims wrap
//!   `parking_lot`, which self-deadlocks on re-entry.
//! * **FT211** — blocking I/O (`fs::*`, `File::open`, fsync,
//!   `TcpStream`/`TcpListener`, `std::process`, `thread::sleep`) while
//!   a guard is live.
//! * **FT212** — channel `send`/`recv` or `JoinHandle::join` while a
//!   guard is live: the peer may need the same lock to make progress.
//! * **FT210** — a cycle in the workspace lock-order graph (lock A
//!   held while acquiring B somewhere, B held while acquiring A
//!   elsewhere): a potential deadlock no single function exhibits.
//!
//! **Lock identity** is `file::field` — the receiver field name of the
//! `.lock()` call, qualified by the file that owns it (`self.inner`
//! and `store.inner` in one file are the same lock; `inner` in two
//! files are different locks). Receivers that are not a plain field
//! (`stdout().lock()`) are not tracked.
//!
//! **Guard liveness** mirrors the workspace idiom rather than full
//! Rust temporaries semantics: `let g = x.lock();` is live until its
//! enclosing brace scope closes or `drop(g)`; any other `.lock()` use
//! is a temporary, dead at the end of the statement (`;`, or the `{`
//! opening a block — so `if x.lock().ok() { … }` holds nothing inside
//! the block). `let _ = x.lock();` drops immediately and is treated as
//! a temporary. The full caveat list lives in DESIGN §16.

use std::collections::{BTreeMap, BTreeSet};

use crate::diag::{Code, Diagnostic};
use crate::source::callgraph::{self, CallGraph};
use crate::source::items::{self, FnItem};
use crate::source::tokens::Tok;

/// One FT21x finding, attributed to a file by the caller's index so it
/// can flow through that file's suppression machinery.
#[derive(Debug)]
pub struct Finding {
    /// Caller's index for the file the diagnostic belongs to.
    pub file: usize,
    pub diag: Diagnostic,
}

/// Result of the cross-file concurrency analysis.
#[derive(Debug, Default)]
pub struct Analysis {
    pub findings: Vec<Finding>,
    pub graph: LockGraph,
}

/// The workspace lock-order graph: a deduplicated edge `A -> B` means
/// some function acquires `B` (directly or through resolved calls)
/// while holding `A`, witnessed at the recorded site.
#[derive(Debug, Clone, Default)]
pub struct LockGraph {
    /// Deduplicated, deterministically ordered edges.
    pub edges: Vec<LockEdge>,
}

/// One lock-order edge with its first witness site.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, serde::Serialize)]
pub struct LockEdge {
    pub from: String,
    pub to: String,
    /// Workspace-relative file of the witnessing acquisition/call.
    pub file: String,
    pub line: u32,
}

impl LockGraph {
    /// All lock identities appearing in any edge, sorted.
    pub fn nodes(&self) -> Vec<&str> {
        let mut set = BTreeSet::new();
        for e in &self.edges {
            set.insert(e.from.as_str());
            set.insert(e.to.as_str());
        }
        set.into_iter().collect()
    }

    /// Graphviz DOT rendering, one edge per witnessed ordering.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph lock_order {\n  rankdir=LR;\n");
        for n in self.nodes() {
            let _ = writeln!(out, "  \"{n}\";");
        }
        for e in &self.edges {
            let _ = writeln!(
                out,
                "  \"{}\" -> \"{}\" [label=\"{}:{}\"];",
                e.from, e.to, e.file, e.line
            );
        }
        out.push_str("}\n");
        out
    }

    /// JSON rendering: `{"nodes": […], "edges": [{from,to,file,line}]}`.
    pub fn to_json(&self) -> String {
        use serde::Value;
        let nodes =
            Value::Array(self.nodes().into_iter().map(|n| Value::Str(n.to_string())).collect());
        let edges = serde_json::to_value(&self.edges).unwrap_or(Value::Null);
        let v = Value::Object(vec![("nodes".to_string(), nodes), ("edges".to_string(), edges)]);
        serde_json::to_string_pretty(&v).unwrap_or_default()
    }

    /// Strongly-connected components with more than one lock — each is
    /// a potential-deadlock cycle. Components and their members are
    /// deterministically ordered.
    pub fn cycles(&self) -> Vec<Vec<String>> {
        let nodes: Vec<&str> = self.nodes();
        let reach = |from: &str| -> BTreeSet<&str> {
            let mut seen = BTreeSet::new();
            let mut stack = vec![from];
            while let Some(n) = stack.pop() {
                for e in self.edges.iter().filter(|e| e.from == n) {
                    if seen.insert(e.to.as_str()) {
                        stack.push(e.to.as_str());
                    }
                }
            }
            seen
        };
        let reachable: BTreeMap<&str, BTreeSet<&str>> =
            nodes.iter().map(|&n| (n, reach(n))).collect();
        let mut assigned: BTreeSet<&str> = BTreeSet::new();
        let mut out = Vec::new();
        for &n in &nodes {
            if assigned.contains(n) || !reachable[n].contains(n) {
                assigned.insert(n);
                continue;
            }
            let scc: Vec<&str> = nodes
                .iter()
                .copied()
                .filter(|&m| reachable[n].contains(m) && reachable[m].contains(n))
                .collect();
            assigned.extend(scc.iter().copied());
            out.push(scc.into_iter().map(String::from).collect());
        }
        out
    }
}

/// Per-function facts, first computed from the body alone and then
/// closed over resolved calls to a fixpoint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Facts {
    /// Lock identities this fn may acquire.
    acquires: BTreeSet<String>,
    /// May perform blocking I/O.
    blocking: bool,
    /// May block on a channel or thread join.
    chan: bool,
}

/// A live lock guard during the walk of one function body.
struct Guard {
    lock: String,
    name: Option<String>,
    /// Brace depth at acquisition; a scoped guard dies when the walk
    /// returns to a shallower depth.
    depth: i32,
    /// `true` for `let g = x.lock();` (scope-lived); `false` for a
    /// temporary that dies at the statement boundary.
    scoped: bool,
    line: u32,
}

/// Runs the FT21x analysis over `(file index, rel path, tokens)` of
/// every **library** file (shims, binaries, tests and benches are out
/// of scope — see [`super::FileClass`]).
pub fn analyze(files: &[(usize, &str, &[Tok])]) -> Analysis {
    // Extract fns, dropping any declared inside `#[test]`-marked items.
    let extracted: Vec<(usize, &[Tok], Vec<FnItem>)> = files
        .iter()
        .map(|&(file, _, toks)| {
            let tests = crate::source::passes::test_line_ranges(toks);
            let fns = items::extract(toks)
                .into_iter()
                .filter(|f| !tests.iter().any(|&(a, b)| (a..=b).contains(&f.line)))
                .collect();
            (file, toks, fns)
        })
        .collect();
    let graph = callgraph::build(&extracted);

    // Position of each graph fn in `files` (for rel-path lookup).
    let file_pos: BTreeMap<usize, usize> =
        files.iter().enumerate().map(|(pos, &(file, _, _))| (file, pos)).collect();

    // Direct facts per fn, then close over calls to a fixpoint.
    let mut facts: Vec<Facts> =
        (0..graph.fns.len()).map(|id| direct_facts(&graph, id, files, &file_pos)).collect();
    loop {
        let mut changed = false;
        for caller in 0..graph.fns.len() {
            for site in graph.calls[caller].clone() {
                let callee = facts[site.callee].clone();
                let f = &mut facts[caller];
                let before = f.clone();
                f.acquires.extend(callee.acquires.iter().cloned());
                f.blocking |= callee.blocking;
                f.chan |= callee.chan;
                changed |= *f != before;
            }
        }
        if !changed {
            break;
        }
    }

    let mut analysis = Analysis::default();
    let mut edge_witness: BTreeMap<(String, String), (String, u32)> = BTreeMap::new();
    let mut seen: BTreeSet<(usize, Code, u32)> = BTreeSet::new();
    for id in 0..graph.fns.len() {
        walk_fn(&graph, id, files, &file_pos, &facts, &mut analysis, &mut edge_witness, &mut seen);
    }

    analysis.graph = LockGraph {
        edges: edge_witness
            .into_iter()
            .map(|((from, to), (file, line))| LockEdge { from, to, file, line })
            .collect(),
    };

    // FT210: every lock-order cycle, reported once at the witness site
    // of its lexicographically first internal edge.
    for cycle in analysis.graph.cycles() {
        let members: BTreeSet<&str> = cycle.iter().map(String::as_str).collect();
        let Some(edge) = analysis
            .graph
            .edges
            .iter()
            .find(|e| members.contains(e.from.as_str()) && members.contains(e.to.as_str()))
        else {
            continue;
        };
        let file = files.iter().find(|(_, rel, _)| *rel == edge.file).map_or(0, |&(f, _, _)| f);
        let path = cycle.join(" -> ");
        analysis.findings.push(Finding {
            file,
            diag: Diagnostic::new(
                Code::FT210,
                Code::FT210.default_severity(),
                format!(
                    "lock-order cycle {path} -> {}: this site orders `{}` before `{}` while \
                     another path orders them oppositely — a potential deadlock; acquire in \
                     one global order or collapse the critical sections",
                    cycle[0], edge.from, edge.to
                ),
            )
            .at_line(&edge.file, edge.line),
        });
    }
    analysis
}

/// Facts visible in `id`'s own body, before call closure.
fn direct_facts(
    graph: &CallGraph,
    id: usize,
    files: &[(usize, &str, &[Tok])],
    file_pos: &BTreeMap<usize, usize>,
) -> Facts {
    let pos = file_pos[&graph.fns[id].file];
    let (_, rel, toks) = files[pos];
    let fns = fns_of_file(graph, graph.fns[id].file);
    let me = in_file_index(graph, id);
    let mut f = Facts::default();
    for i in items::own_body(&fns, me) {
        if let Some(field) = lock_acquire_at(toks, i) {
            f.acquires.insert(format!("{rel}::{field}"));
        }
        f.blocking |= blocking_at(toks, i).is_some();
        f.chan |= chan_at(toks, i).is_some();
    }
    f
}

/// Walks one function body tracking live guards; emits FT211-FT213
/// findings and lock-order edges.
#[allow(clippy::too_many_arguments)]
fn walk_fn(
    graph: &CallGraph,
    id: usize,
    files: &[(usize, &str, &[Tok])],
    file_pos: &BTreeMap<usize, usize>,
    facts: &[Facts],
    analysis: &mut Analysis,
    edge_witness: &mut BTreeMap<(String, String), (String, u32)>,
    seen: &mut BTreeSet<(usize, Code, u32)>,
) {
    let pos = file_pos[&graph.fns[id].file];
    let (file, rel, toks) = files[pos];
    let fns = fns_of_file(graph, graph.fns[id].file);
    let me = in_file_index(graph, id);
    let calls: BTreeMap<usize, Vec<usize>> = {
        let mut m: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for s in &graph.calls[id] {
            m.entry(s.tok).or_default().push(s.callee);
        }
        m
    };

    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0i32;
    let emit = |analysis: &mut Analysis,
                seen: &mut BTreeSet<(usize, Code, u32)>,
                code: Code,
                line: u32,
                col: u32,
                msg: String| {
        if seen.insert((file, code, line)) {
            analysis.findings.push(Finding {
                file,
                diag: Diagnostic::new(code, code.default_severity(), msg)
                    .at_line(rel, line)
                    .at_col(col),
            });
        }
    };

    for i in items::own_body(&fns, me) {
        let t = &toks[i];
        let (line, col) = (t.line(), t.col());
        match t.punct() {
            Some('{') => {
                guards.retain(|g| g.scoped);
                depth += 1;
                continue;
            }
            Some('}') => {
                depth -= 1;
                guards.retain(|g| g.scoped && g.depth <= depth);
                continue;
            }
            Some(';') => {
                guards.retain(|g| g.scoped);
                continue;
            }
            _ => {}
        }

        // `drop(g)` ends a named guard early.
        if t.is_ident("drop")
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 3).is_some_and(|t| t.is_punct(')'))
        {
            if let Some(victim) = toks.get(i + 2).and_then(Tok::ident) {
                guards.retain(|g| g.name.as_deref() != Some(victim));
                continue;
            }
        }

        if let Some(field) = lock_acquire_at(toks, i) {
            let lock = format!("{rel}::{field}");
            for g in &guards {
                if g.lock == lock {
                    emit(
                        analysis,
                        seen,
                        Code::FT213,
                        line,
                        col,
                        format!(
                            "re-entrant acquisition of `{lock}` — the guard from line {} is \
                             still live, and the shim mutexes (parking_lot) self-deadlock on \
                             re-entry",
                            g.line
                        ),
                    );
                } else {
                    edge_witness
                        .entry((g.lock.clone(), lock.clone()))
                        .or_insert_with(|| (rel.to_string(), line));
                }
            }
            let (scoped, name) = guard_binding(toks, i);
            guards.push(Guard { lock, name, depth, scoped, line });
            continue;
        }

        let held = guards.last();
        if let Some(g) = held {
            if let Some(op) = blocking_at(toks, i) {
                emit(
                    analysis,
                    seen,
                    Code::FT211,
                    line,
                    col,
                    format!(
                        "blocking {op} while `{}` is held (guard since line {}) — move the \
                         I/O out of the critical section",
                        g.lock, g.line
                    ),
                );
            } else if let Some(op) = chan_at(toks, i) {
                emit(
                    analysis,
                    seen,
                    Code::FT212,
                    line,
                    col,
                    format!(
                        "{op} while `{}` is held (guard since line {}) — the peer may need \
                         this lock to make progress",
                        g.lock, g.line
                    ),
                );
            }
        }

        if let Some(callees) = calls.get(&i) {
            for &callee in callees {
                let cf = &facts[callee];
                let qual = &graph.fns[callee].item.qual;
                for l2 in &cf.acquires {
                    let mut reentrant = false;
                    for g in &guards {
                        if g.lock == *l2 {
                            reentrant = true;
                            emit(
                                analysis,
                                seen,
                                Code::FT213,
                                line,
                                col,
                                format!(
                                    "call to `{qual}` re-acquires `{l2}` held since line {} \
                                     — the shim mutexes self-deadlock on re-entry",
                                    g.line
                                ),
                            );
                        }
                    }
                    if !reentrant {
                        for g in &guards {
                            edge_witness
                                .entry((g.lock.clone(), l2.clone()))
                                .or_insert_with(|| (rel.to_string(), line));
                        }
                    }
                }
                if let Some(g) = guards.last() {
                    if cf.blocking {
                        emit(
                            analysis,
                            seen,
                            Code::FT211,
                            line,
                            col,
                            format!(
                                "call to `{qual}` performs blocking I/O while `{}` is held \
                                 (guard since line {}) — hoist the I/O out of the critical \
                                 section",
                                g.lock, g.line
                            ),
                        );
                    }
                    if cf.chan {
                        emit(
                            analysis,
                            seen,
                            Code::FT212,
                            line,
                            col,
                            format!(
                                "call to `{qual}` blocks on a channel or join while `{}` is \
                                 held (guard since line {})",
                                g.lock, g.line
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// The fns of one file, in graph order (contiguous by construction).
fn fns_of_file(graph: &CallGraph, file: usize) -> Vec<FnItem> {
    graph.fns.iter().filter(|f| f.file == file).map(|f| f.item.clone()).collect()
}

/// Position of graph fn `id` within its own file's fn list.
fn in_file_index(graph: &CallGraph, id: usize) -> usize {
    let file = graph.fns[id].file;
    graph.fns[..id].iter().filter(|f| f.file == file).count()
}

/// `Some(field)` when token `i` is the `lock` of `field . lock ( )`.
fn lock_acquire_at(toks: &[Tok], i: usize) -> Option<&str> {
    if !(toks[i].is_ident("lock")
        && i >= 2
        && toks[i - 1].is_punct('.')
        && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        && toks.get(i + 2).is_some_and(|t| t.is_punct(')')))
    {
        return None;
    }
    toks[i - 2].ident()
}

/// Classifies the binding of the acquisition at token `i` (the `lock`
/// ident): `(scoped, name)`. Scope-lived iff the statement begins with
/// `let` and the `.lock()` call is the statement's final expression
/// (its `)` is immediately followed by `;`); `let _ = …` drops at once.
fn guard_binding(toks: &[Tok], i: usize) -> (bool, Option<String>) {
    if !toks.get(i + 3).is_some_and(|t| t.is_punct(';')) {
        return (false, None);
    }
    // Scan back to the statement boundary.
    let mut j = i;
    while j > 0 {
        let t = &toks[j - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        j -= 1;
    }
    if !toks.get(j).is_some_and(|t| t.is_ident("let")) {
        return (false, None);
    }
    let mut k = j + 1;
    if toks.get(k).is_some_and(|t| t.is_ident("mut")) {
        k += 1;
    }
    match toks.get(k).and_then(Tok::ident) {
        Some("_") | None => (false, None),
        Some(name) => (true, Some(name.to_string())),
    }
}

/// File-system / process / sleep operations that block the calling
/// thread, as `(leading path segment, member)` pairs.
const BLOCKING_PATHS: &[(&str, &str)] = &[
    ("fs", "rename"),
    ("fs", "remove_file"),
    ("fs", "remove_dir_all"),
    ("fs", "create_dir_all"),
    ("fs", "write"),
    ("fs", "read"),
    ("fs", "read_to_string"),
    ("fs", "read_dir"),
    ("fs", "copy"),
    ("File", "open"),
    ("File", "create"),
    ("TcpStream", "connect"),
    ("TcpListener", "bind"),
    ("UdpSocket", "bind"),
    ("Command", "new"),
    ("std", "process"),
    ("thread", "sleep"),
];

/// `Some(description)` when token `i` is a blocking operation.
fn blocking_at(toks: &[Tok], i: usize) -> Option<String> {
    let name = toks[i].ident()?;
    // `handle.sync_all()` / `.sync_data()` — an fsync.
    if (name == "sync_all" || name == "sync_data")
        && i >= 1
        && toks[i - 1].is_punct('.')
        && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
    {
        return Some(format!("`.{name}()` (fsync)"));
    }
    // `seg::member` path operations.
    if i >= 3 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':') {
        let seg = toks[i - 3].ident().unwrap_or_default();
        if BLOCKING_PATHS.iter().any(|&(s, m)| s == seg && m == name) {
            return Some(format!("`{seg}::{name}`"));
        }
    }
    None
}

/// `Some(description)` when token `i` blocks on a channel or a join.
fn chan_at(toks: &[Tok], i: usize) -> Option<String> {
    let name = toks[i].ident()?;
    if i == 0 || !toks[i - 1].is_punct('.') {
        return None;
    }
    let open = toks.get(i + 1).is_some_and(|t| t.is_punct('('));
    match name {
        // Zero-arg `.join()` — `Path::join(part)` takes an argument.
        "join" if open && toks.get(i + 2).is_some_and(|t| t.is_punct(')')) => {
            Some("`.join()` on a thread handle".to_string())
        }
        "recv" | "recv_timeout" if open => Some(format!("channel `.{name}(…)`")),
        "send" if open => Some("channel `.send(…)`".to_string()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::tokens::tokenize;

    /// Analyzes in-memory `(path, src)` pairs and returns (code, line)
    /// pairs across all findings, plus the graph.
    fn run(files: &[(&str, &str)]) -> (Vec<(Code, u32)>, LockGraph) {
        let tzs: Vec<_> = files.iter().map(|(_, s)| tokenize(s)).collect();
        let view: Vec<(usize, &str, &[Tok])> = files
            .iter()
            .enumerate()
            .map(|(i, (rel, _))| (i, *rel, tzs[i].toks.as_slice()))
            .collect();
        let a = analyze(&view);
        let mut hits: Vec<(Code, u32)> =
            a.findings.iter().map(|f| (f.diag.code, f.diag.line.unwrap_or(0))).collect();
        hits.sort();
        (hits, a.graph)
    }

    #[test]
    fn blocking_io_under_named_guard_is_ft211() {
        let src = "impl S {\n\
                   fn f(&self) {\n\
                   let g = self.inner.lock();\n\
                   fs::rename(a, b);\n\
                   }\n}";
        let (hits, _) = run(&[("crates/x/src/lib.rs", src)]);
        assert_eq!(hits, vec![(Code::FT211, 4)]);
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let src = "impl S {\n\
                   fn f(&self) {\n\
                   self.inner.lock().push(1);\n\
                   fs::rename(a, b);\n\
                   }\n}";
        let (hits, _) = run(&[("crates/x/src/lib.rs", src)]);
        assert_eq!(hits, vec![]);
    }

    #[test]
    fn condition_guard_does_not_leak_into_the_block() {
        // `if x.lock().is_some() { … }` — the temporary dies at `{`.
        let src = "impl S {\n\
                   fn f(&self) {\n\
                   if self.inner.lock().is_some() {\n\
                   fs::rename(a, b);\n\
                   }\n}\n}";
        let (hits, _) = run(&[("crates/x/src/lib.rs", src)]);
        assert_eq!(hits, vec![]);
    }

    #[test]
    fn drop_ends_the_guard_early() {
        let src = "impl S {\n\
                   fn f(&self) {\n\
                   let g = self.inner.lock();\n\
                   drop(g);\n\
                   fs::rename(a, b);\n\
                   }\n}";
        let (hits, _) = run(&[("crates/x/src/lib.rs", src)]);
        assert_eq!(hits, vec![]);
    }

    #[test]
    fn transitive_blocking_via_self_call_is_ft211() {
        let src = "impl S {\n\
                   fn f(&self) {\n\
                   let g = self.inner.lock();\n\
                   self.commit();\n\
                   }\n\
                   fn commit(&self) { f.sync_all(); }\n}";
        let (hits, _) = run(&[("crates/x/src/lib.rs", src)]);
        assert_eq!(hits, vec![(Code::FT211, 4)]);
    }

    #[test]
    fn channel_and_join_under_guard_are_ft212() {
        let src = "fn f(rx: X, h: Y, inner: L) {\n\
                   let g = inner.lock();\n\
                   rx.recv();\n\
                   h.join();\n\
                   }\n\
                   fn ok(p: P) { let q = p.join(\"x\"); }";
        let (hits, _) = run(&[("crates/x/src/lib.rs", src)]);
        assert_eq!(hits, vec![(Code::FT212, 3), (Code::FT212, 4)]);
    }

    #[test]
    fn reentrant_same_lock_is_ft213_direct_and_via_call() {
        let direct = "impl S {\n\
                      fn f(&self) {\n\
                      let g = self.inner.lock();\n\
                      let h = self.inner.lock();\n\
                      }\n}";
        let (hits, _) = run(&[("crates/x/src/lib.rs", direct)]);
        assert_eq!(hits, vec![(Code::FT213, 4)]);

        let via_call = "impl S {\n\
                        fn f(&self) {\n\
                        let g = self.inner.lock();\n\
                        self.len();\n\
                        }\n\
                        fn len(&self) { let n = self.inner.lock(); }\n}";
        let (hits, _) = run(&[("crates/x/src/lib.rs", via_call)]);
        assert_eq!(hits, vec![(Code::FT213, 4)]);
    }

    #[test]
    fn opposite_order_acquisitions_are_a_ft210_cycle() {
        let files = [(
            "crates/x/src/lib.rs",
            "fn ab(a: L, b: L) { let g = a.lock(); let h = b.lock(); }\n\
             fn ba(a: L, b: L) { let h = b.lock(); let g = a.lock(); }",
        )];
        let (hits, graph) = run(&files);
        assert_eq!(hits, vec![(Code::FT210, 1)]);
        assert_eq!(graph.edges.len(), 2);
        assert_eq!(graph.cycles().len(), 1);
        let dot = graph.to_dot();
        assert!(dot.contains("\"crates/x/src/lib.rs::a\" -> \"crates/x/src/lib.rs::b\""), "{dot}");
        let json: serde::Value = serde_json::from_str(&graph.to_json()).unwrap();
        assert_eq!(json.get("edges").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn consistent_order_is_clean_and_still_graphed() {
        let files = [(
            "crates/x/src/lib.rs",
            "fn one(a: L, b: L) { let g = a.lock(); let h = b.lock(); }\n\
             fn two(a: L, b: L) { let g = a.lock(); let h = b.lock(); }",
        )];
        let (hits, graph) = run(&files);
        assert_eq!(hits, vec![]);
        assert_eq!(graph.edges.len(), 1);
        assert!(graph.cycles().is_empty());
    }

    #[test]
    fn test_items_are_exempt() {
        let src = "#[test]\nfn t() { let g = inner.lock(); fs::rename(a, b); }";
        let (hits, _) = run(&[("crates/x/src/lib.rs", src)]);
        assert_eq!(hits, vec![]);
    }
}
