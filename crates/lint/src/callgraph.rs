//! Workspace call-graph approximation and the R9 wall-clock taint pass.
//!
//! The item tree ([`crate::syntax`]) says where every function lives; this
//! module stitches those functions into a workspace-level graph and walks
//! it backwards from every direct wall-clock read. Clippy's
//! `disallowed_methods` already flags the read *site*; R9 flags every
//! function that *reaches* one through calls — the failure mode a
//! call-site check cannot see (a helper buried two crates down deciding
//! to timestamp something).
//!
//! # Name resolution approximation
//!
//! There is no type information, so calls resolve by name with a small
//! amount of path context:
//!
//! * `helper(…)` and `.helper(…)` resolve to every same-crate function
//!   named `helper`;
//! * `Type::helper(…)` prefers same-crate functions in an `impl Type`
//!   block, falling back to name-only;
//! * `planaria_x::…::helper(…)` (any known crate identifier) resolves
//!   into that crate; `crate::`/`self::`/`super::` stay in the current
//!   crate; `std::`/`core::`/`alloc::` paths produce no edge.
//!
//! Over-approximate edges are acceptable: an extra edge can only matter if
//! its callee is wall-clock tainted, and the workspace keeps direct
//! reads confined to the barrier files (enforced by clippy). Known *false
//! negatives* — calls the graph cannot see — are function pointers /
//! closures passed as values, trait-object dispatch, and macro-generated
//! calls; DESIGN.md §11 documents each.
//!
//! # Barrier semantics
//!
//! Files opening with `#![allow(clippy::disallowed_methods)]` (the runner,
//! the bench harness library and timing bins, the CLIs) are the
//! *sanctioned* timing layer. Their functions neither get reported nor
//! propagate taint — calling `Runner::run` does not make a caller "reach
//! a wall clock", because that reviewed opt-out is precisely the decision
//! that timing stops there.

use crate::lexer::{Token, TokenKind};
use crate::rules::{FileMeta, Origin, Violation};
use crate::syntax::{ItemKind, ItemTree};

/// One source file lifted to the representation the graph passes need:
/// classification, token stream and item tree.
#[derive(Debug, Clone)]
pub struct FileIr {
    /// File classification.
    pub meta: FileMeta,
    /// Lexed token stream.
    pub tokens: Vec<Token>,
    /// Parsed item tree over `tokens`.
    pub tree: ItemTree,
    /// Per-token `#[cfg(test)]` region markers.
    pub in_test: Vec<bool>,
    /// Source lines (for violation snippets).
    pub lines: Vec<String>,
}

impl FileIr {
    /// Builds the IR for one classified source file.
    pub fn build(meta: FileMeta, source: &str) -> FileIr {
        let tokens = crate::lexer::lex(source);
        let tree = ItemTree::parse(&tokens);
        let in_test = crate::rules::test_regions(&tokens);
        let lines = source.lines().map(str::to_string).collect();
        FileIr { meta, tokens, tree, in_test, lines }
    }
}

/// One function node of the workspace call graph.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Index of the owning file in the input slice.
    pub file: usize,
    /// Owning crate directory name (`FileMeta::crate_name`).
    pub crate_name: String,
    /// Function name (raw-ident prefix stripped by the lexer).
    pub name: String,
    /// Self-type head of the owning `impl`/`trait` block, if any.
    pub impl_type: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Body token range in the owning file, exclusive of braces.
    pub body: Option<(usize, usize)>,
    /// Body sub-ranges owned by nested items (their tokens belong to the
    /// nested function's node, not this one).
    pub holes: Vec<(usize, usize)>,
    /// Test-gated (`#[cfg(test)]` region or test file).
    pub is_test: bool,
    /// File opts out of clippy's wall-clock ban — a taint barrier.
    pub allowlisted: bool,
    /// File is first-party production code (where R9 reports).
    pub first_party: bool,
}

/// The workspace call graph: nodes, edges and the R9 taint results.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    /// All function nodes, in (file, source) order.
    pub nodes: Vec<FnNode>,
    /// Resolved call edges as `(caller, callee)` node indices, deduplicated.
    pub edges: Vec<(usize, usize)>,
}

impl CallGraph {
    /// Builds the graph over every file and resolves call edges.
    pub fn build(files: &[FileIr]) -> CallGraph {
        let nodes = collect_nodes(files);

        // Lookup tables (insert + point lookups only — iteration order of
        // a hash map must never influence output, per this linter's own
        // R10). `by_name` keys function names; `crate_of_ident` maps path
        // roots like `planaria_serve` back to crate directory names.
        let mut by_name: std::collections::HashMap<&str, Vec<usize>> =
            std::collections::HashMap::new();
        for (i, n) in nodes.iter().enumerate() {
            by_name.entry(n.name.as_str()).or_default().push(i);
        }
        let mut crate_of_ident: std::collections::HashMap<String, String> =
            std::collections::HashMap::new();
        for n in &nodes {
            let underscored = n.crate_name.replace('-', "_");
            crate_of_ident.insert(underscored.clone(), n.crate_name.clone());
            crate_of_ident.insert(format!("planaria_{underscored}"), n.crate_name.clone());
        }

        let mut edges = Vec::new();
        for (caller, node) in nodes.iter().enumerate() {
            let Some((lo, hi)) = node.body else { continue };
            let toks = &files[node.file].tokens;
            let mut i = lo;
            while i < hi {
                if let Some(hole) = node.holes.iter().find(|(hlo, hhi)| *hlo <= i && i < *hhi) {
                    i = hole.1;
                    continue;
                }
                if let Some(call) = call_site(toks, i, lo) {
                    for callee in resolve(&call, node, &nodes, &by_name, &crate_of_ident) {
                        if callee != caller {
                            edges.push((caller, callee));
                        }
                    }
                }
                i += 1;
            }
        }
        edges.sort_unstable();
        edges.dedup();
        CallGraph { nodes, edges }
    }

    /// Runs the R9 taint pass: finds every function whose body directly
    /// reads a wall clock (outside the barrier files), propagates taint
    /// to callers — stopping at barriers — and reports the *indirectly*
    /// tainted functions (direct sites are clippy's to report).
    pub fn wall_clock_taint(&self, files: &[FileIr]) -> Vec<Violation> {
        let n = self.nodes.len();
        // What each directly-tainted node reaches, e.g. "Instant::now".
        let mut direct: Vec<Option<String>> = vec![None; n];
        for (idx, node) in self.nodes.iter().enumerate() {
            if node.allowlisted || node.is_test || !node.first_party {
                continue;
            }
            let Some((lo, hi)) = node.body else { continue };
            let toks = &files[node.file].tokens;
            let mut i = lo;
            while i < hi {
                if let Some(hole) = node.holes.iter().find(|(hlo, hhi)| *hlo <= i && i < *hhi) {
                    i = hole.1;
                    continue;
                }
                if let Some(what) = wall_clock_at(toks, i) {
                    direct[idx] = Some(what);
                    break;
                }
                i += 1;
            }
        }

        // Reverse adjacency: callee -> callers.
        let mut callers: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(caller, callee) in &self.edges {
            callers[callee].push(caller);
        }

        // BFS backwards from direct sites; `via[x]` remembers the callee
        // that tainted x, giving the report its call chain.
        let mut via: Vec<Option<usize>> = vec![None; n];
        let mut tainted = vec![false; n];
        let mut queue: std::collections::VecDeque<usize> =
            (0..n).filter(|&i| direct[i].is_some()).collect();
        while let Some(x) = queue.pop_front() {
            for &caller in &callers[x] {
                let c = &self.nodes[caller];
                if tainted[caller] || direct[caller].is_some() || c.allowlisted || c.is_test {
                    continue;
                }
                tainted[caller] = true;
                via[caller] = Some(x);
                queue.push_back(caller);
            }
        }

        let mut out = Vec::new();
        for (idx, node) in self.nodes.iter().enumerate() {
            if !tainted[idx] || !node.first_party {
                continue;
            }
            // Reconstruct the chain down to the direct site.
            let mut chain = Vec::new();
            let mut cur = idx;
            let what = loop {
                match via[cur] {
                    Some(next) => {
                        chain.push(self.nodes[next].name.clone());
                        cur = next;
                    }
                    None => break direct[cur].clone().unwrap_or_default(),
                }
            };
            let path = chain.iter().map(|s| format!("`{s}`")).collect::<Vec<_>>().join(" → ");
            let file_ir = &files[node.file];
            let snippet = file_ir
                .lines
                .get(node.line as usize - 1)
                .map(|l| crate::rules::snippet_of(l))
                .unwrap_or_default();
            out.push(Violation {
                rule: "R9",
                file: node.crate_file(files),
                line: node.line,
                snippet,
                message: format!(
                    "fn `{}` transitively reaches {what} via {path}; simulated code must be a \
                     pure function of its inputs — route timing through the sanctioned \
                     runner/bench layer or pass timestamps in as data",
                    node.name
                ),
            });
        }
        out
    }
}

impl FnNode {
    fn crate_file(&self, files: &[FileIr]) -> String {
        files[self.file].meta.path.clone()
    }
}

/// A call site: the called name plus its leading path segments.
struct CallSite {
    /// Path segments before the name (`planaria_sim`, `Runner`, …).
    path: Vec<String>,
    /// Called function name.
    name: String,
    /// True for `.name(…)` method syntax.
    method: bool,
}

/// Keywords and tuple-struct constructors that look like `ident (` but are
/// not function calls worth an edge.
const NON_CALLS: [&str; 22] = [
    "if", "while", "match", "return", "for", "in", "loop", "move", "as", "fn", "let", "else",
    "break", "continue", "where", "impl", "dyn", "ref", "mut", "Some", "Ok", "Err",
];

/// Recognises a call site at token `i` (an identifier directly followed by
/// `(`), collecting any `::`-path prefix back to `lo`.
fn call_site(toks: &[Token], i: usize, lo: usize) -> Option<CallSite> {
    let t = toks.get(i)?;
    if t.kind != TokenKind::Ident || !toks.get(i + 1).is_some_and(|p| p.is_punct('(')) {
        return None;
    }
    if NON_CALLS.contains(&t.text.as_str()) {
        return None;
    }
    // `fn name(` is a definition, not a call.
    if i > lo && toks[i - 1].is_ident("fn") {
        return None;
    }
    if i > lo && toks[i - 1].is_punct('.') {
        return Some(CallSite { path: Vec::new(), name: t.text.clone(), method: true });
    }
    // Walk `seg :: seg :: name` backwards.
    let mut path = Vec::new();
    let mut j = i;
    while j >= lo + 3
        && toks[j - 1].is_punct(':')
        && toks[j - 2].is_punct(':')
        && toks[j - 3].kind == TokenKind::Ident
    {
        path.push(toks[j - 3].text.clone());
        j -= 3;
    }
    path.reverse();
    Some(CallSite { path, name: t.text.clone(), method: false })
}

/// Resolves one call site to node indices (possibly several — resolution
/// is name-based and deliberately over-approximate).
fn resolve(
    call: &CallSite,
    from: &FnNode,
    nodes: &[FnNode],
    by_name: &std::collections::HashMap<&str, Vec<usize>>,
    crate_of_ident: &std::collections::HashMap<String, String>,
) -> Vec<usize> {
    let Some(candidates) = by_name.get(call.name.as_str()) else { return Vec::new() };

    // Which crate does the path root us in?
    let target_crate: Option<&str> = match call.path.first().map(String::as_str) {
        None => Some(from.crate_name.as_str()),
        Some("crate" | "self" | "super") => Some(from.crate_name.as_str()),
        Some("std" | "core" | "alloc") => None, // external — no edge
        Some(root) => match crate_of_ident.get(root) {
            Some(dir) => Some(dir.as_str()),
            // Unknown root: a local module or type — stay in-crate.
            None => Some(from.crate_name.as_str()),
        },
    };
    let Some(target_crate) = target_crate else { return Vec::new() };

    let in_crate: Vec<usize> =
        candidates.iter().copied().filter(|&i| nodes[i].crate_name == target_crate).collect();
    if in_crate.is_empty() {
        return in_crate;
    }

    // `Type::name(…)`: prefer matching impl blocks when the second-to-last
    // segment is capitalized (a type name by convention).
    if !call.method {
        if let Some(qualifier) = call.path.last() {
            if qualifier.chars().next().is_some_and(char::is_uppercase) {
                let typed: Vec<usize> = in_crate
                    .iter()
                    .copied()
                    .filter(|&i| nodes[i].impl_type.as_deref() == Some(qualifier.as_str()))
                    .collect();
                if !typed.is_empty() {
                    return typed;
                }
            }
        }
    }
    in_crate
}

/// Recognises a direct wall-clock / nondeterminism pattern at token `i`:
/// `SystemTime`, `thread_rng`, `from_entropy`, `Instant::now`,
/// `std::env`. Returns what was reached.
fn wall_clock_at(toks: &[Token], i: usize) -> Option<String> {
    let t = toks.get(i)?;
    if t.is_ident("SystemTime") || t.is_ident("thread_rng") || t.is_ident("from_entropy") {
        return Some(t.text.clone());
    }
    let qualified = |name: &str| {
        matches!(toks.get(i + 1), Some(c) if c.is_punct(':'))
            && matches!(toks.get(i + 2), Some(c) if c.is_punct(':'))
            && matches!(toks.get(i + 3), Some(n) if n.is_ident(name))
    };
    if t.is_ident("Instant") && qualified("now") {
        return Some("Instant::now".to_string());
    }
    if t.is_ident("std") && qualified("env") {
        return Some("std::env".to_string());
    }
    None
}

/// True when the file opens (after its `//!` docs) with
/// `#![allow(clippy::disallowed_methods)]`: the reviewed opt-out from
/// clippy's wall-clock/env ban, and therefore an R9 barrier.
fn opts_out_of_clock_ban(toks: &[Token]) -> bool {
    const ATTR: [&str; 11] =
        ["#", "!", "[", "allow", "(", "clippy", ":", ":", "disallowed_methods", ")", "]"];
    toks.len() >= ATTR.len() && toks.iter().zip(ATTR).all(|(t, a)| t.text == a)
}

/// Flattens every file's item tree into graph nodes.
fn collect_nodes(files: &[FileIr]) -> Vec<FnNode> {
    let mut nodes = Vec::new();
    for (file_idx, ir) in files.iter().enumerate() {
        let allowlisted = opts_out_of_clock_ban(&ir.tokens);
        let first_party = matches!(ir.meta.origin, Origin::FirstParty | Origin::Examples)
            && !ir.meta.is_test_file;
        for f in ir.tree.fns() {
            let item = f.item;
            if item.kind != ItemKind::Fn {
                continue;
            }
            let holes = item.children.iter().filter_map(|c| c.body).collect();
            // A fn is test code when its item is cfg(test)-gated, the file
            // is a test file, or its first body token falls in a marked
            // test region (belt and braces with `test_regions`).
            let in_marked_region = item
                .body
                .map(|(lo, _)| ir.in_test.get(lo).copied().unwrap_or(false))
                .unwrap_or(false);
            nodes.push(FnNode {
                file: file_idx,
                crate_name: ir.meta.crate_name.clone(),
                name: item.name.clone(),
                impl_type: f.impl_type.map(str::to_string),
                line: item.line,
                body: item.body,
                holes,
                is_test: item.cfg_test || ir.meta.is_test_file || in_marked_region,
                allowlisted,
                first_party,
            });
        }
    }
    nodes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::FileMeta;

    fn ir(path: &str, src: &str) -> FileIr {
        FileIr::build(FileMeta::for_path(path).expect("classifiable"), src)
    }

    #[test]
    fn bare_calls_resolve_within_the_crate() {
        let files = [ir("crates/core/src/a.rs", "pub fn leaf() {}\npub fn root() { leaf(); }\n")];
        let g = CallGraph::build(&files);
        assert_eq!(g.nodes.len(), 2);
        assert_eq!(g.edges, [(1, 0)]);
    }

    #[test]
    fn cross_crate_edges_need_a_known_crate_root() {
        let files = [
            ir("crates/core/src/a.rs", "pub fn helper() {}\n"),
            ir(
                "crates/sim/src/b.rs",
                "pub fn caller() { planaria_core::helper(); }\n\
                 pub fn no_edge() { std::mem::drop(1); }\n",
            ),
        ];
        let g = CallGraph::build(&files);
        let helper = g.nodes.iter().position(|n| n.name == "helper").unwrap();
        let caller = g.nodes.iter().position(|n| n.name == "caller").unwrap();
        assert!(g.edges.contains(&(caller, helper)));
        assert_eq!(g.edges.len(), 1, "std:: paths must not resolve: {:?}", g.edges);
    }

    #[test]
    fn type_qualified_calls_prefer_the_matching_impl() {
        let files = [ir(
            "crates/core/src/a.rs",
            "pub struct A;\npub struct B;\n\
             impl A { pub fn make() -> A { A } }\n\
             impl B { pub fn make() -> B { B } }\n\
             pub fn build_a() { A::make(); }\n",
        )];
        let g = CallGraph::build(&files);
        let build_a = g.nodes.iter().position(|n| n.name == "build_a").unwrap();
        let callees: Vec<&str> = g
            .edges
            .iter()
            .filter(|(c, _)| *c == build_a)
            .map(|&(_, e)| g.nodes[e].impl_type.as_deref().unwrap_or("?"))
            .collect();
        assert_eq!(callees, ["A"], "only impl A's make() may be the callee");
    }

    #[test]
    fn nested_fn_bodies_are_holes_in_the_parent() {
        // `inner` owns the wall-clock read; `outer` merely declares it and
        // never calls it, so outer must NOT be directly tainted.
        let files = [ir(
            "crates/core/src/a.rs",
            "pub fn outer() {\n    fn inner() { let _ = std::time::Instant::now(); }\n}\n",
        )];
        let g = CallGraph::build(&files);
        let vs = g.wall_clock_taint(&files);
        assert!(vs.is_empty(), "declaring a fn is not calling it: {vs:?}");
    }

    #[test]
    fn transitive_taint_crosses_files_and_reports_the_chain() {
        let files = [
            ir(
                "crates/trace/src/deep.rs",
                "pub fn stamp() -> u64 { let _ = std::time::Instant::now(); 0 }\n",
            ),
            ir("crates/trace/src/mid.rs", "pub fn relay() -> u64 { crate::stamp() }\n"),
            ir("crates/sim/src/top.rs", "pub fn driver() { planaria_trace::relay(); }\n"),
        ];
        let g = CallGraph::build(&files);
        let vs = g.wall_clock_taint(&files);
        let names: Vec<String> =
            vs.iter().map(|v| v.message.split('`').nth(1).unwrap_or("").to_string()).collect();
        assert_eq!(names, ["relay", "driver"], "violations: {vs:?}");
        let driver = vs.iter().find(|v| v.message.contains("`driver`")).unwrap();
        assert!(
            driver.message.contains("`relay`") && driver.message.contains("Instant::now"),
            "chain must name the route: {}",
            driver.message
        );
        assert!(vs.iter().all(|v| v.rule == "R9"));
    }

    #[test]
    fn allowlisted_files_are_taint_barriers() {
        // A file that opts out of clippy's wall-clock ban is the timing
        // layer: its direct read is sanctioned, and callers of its fns stay
        // clean — timing stops at the barrier. The path plays no part.
        let timed = "pub fn timed_cell() -> u64 { let _ = std::time::Instant::now(); 0 }\n";
        let sweep = ir("crates/sim/src/grid.rs", "pub fn sweep() { crate::timed_cell(); }\n");
        for (header, barrier) in [
            ("//! Runner.\n#![allow(clippy::disallowed_methods)]\n", true),
            ("//! Runner.\n#![allow(dead_code)]\n", false),
        ] {
            let files =
                [ir("crates/sim/src/runner.rs", &format!("{header}{timed}")), sweep.clone()];
            let g = CallGraph::build(&files);
            let vs = g.wall_clock_taint(&files);
            assert_eq!(vs.is_empty(), barrier, "{header:?}: {vs:?}");
        }
    }

    #[test]
    fn test_functions_are_exempt() {
        let files = [ir(
            "crates/core/src/a.rs",
            "pub fn stamp() { let _ = std::time::SystemTime::now(); }\n\
             #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { crate::stamp(); }\n}\n",
        )];
        let g = CallGraph::build(&files);
        let vs = g.wall_clock_taint(&files);
        // `stamp` is a *direct* site — clippy's report, not R9's. The test
        // fn calling it is exempt. So R9 stays silent here.
        assert!(vs.is_empty(), "{vs:?}");
    }
}
