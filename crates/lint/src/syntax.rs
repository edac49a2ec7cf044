//! Brace-matched item-tree parser over the [`crate::lexer`] token stream.
//!
//! The token-level rules only need to know *which* tokens exist; the
//! call-graph rule (R9) needs to know *where* they live: which `fn` a
//! call sits in, whether that `fn` is inside a `#[cfg(test)]` region,
//! which `impl` block owns a method. This module recovers exactly
//! that structure — modules, functions, impls, traits and `use`
//! declarations, each with its brace-matched token span — without a full
//! Rust grammar.
//!
//! The parser is deliberately forgiving: anything it does not recognise
//! as an item is skipped one token at a time, so expression code inside
//! function bodies never derails it, and a malformed file degrades to a
//! smaller tree instead of an error (the compiler, not the linter, owns
//! syntax errors). Known approximations are documented in `DESIGN.md`
//! §11; the important ones:
//!
//! * generic argument lists are not bracket-matched (`<`/`>` are also
//!   comparison operators), so a `{` inside a const-generic argument
//!   would end an item header early;
//! * `cfg_attr(test, …)` is treated like `cfg(test)` whenever both the
//!   `cfg`-ish and `test` identifiers appear in one attribute.

use crate::lexer::{lex, Token, TokenKind};

/// What kind of item a tree node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `mod name { … }` or `mod name;`.
    Mod,
    /// `fn name(…) { … }` (or a body-less trait-method signature).
    Fn,
    /// `impl Type { … }` / `impl Trait for Type { … }`; `name` holds the
    /// self-type's head identifier.
    Impl,
    /// `trait Name { … }`.
    Trait,
    /// `use path::…;`; `name` holds the first path segment.
    Use,
}

/// One node of the item tree.
#[derive(Debug, Clone)]
pub struct Item {
    /// Item class.
    pub kind: ItemKind,
    /// Name (see [`ItemKind`] for what each class stores). Raw-identifier
    /// items (`fn r#loop`) store the bare name (`loop`) — the lexer
    /// strips the `r#` prefix.
    pub name: String,
    /// 1-based line of the introducing keyword.
    pub line: u32,
    /// True when this item, or any enclosing item, is gated behind
    /// `#[cfg(test)]` (or is a `#[test]` function).
    pub cfg_test: bool,
    /// Token range of the brace-matched body interior (exclusive of the
    /// braces themselves). `None` for `mod name;`, `use …;` and body-less
    /// fn signatures.
    pub body: Option<(usize, usize)>,
    /// Items nested inside the body: a module's items, an impl's
    /// methods, and items declared inside a function body (nested fns,
    /// impl-in-fn blocks).
    pub children: Vec<Item>,
}

/// A parsed file: the top-level items with their nested children.
#[derive(Debug, Clone, Default)]
pub struct ItemTree {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

/// A flattened view of one function, carrying its resolution context.
#[derive(Debug, Clone)]
pub struct FnView<'a> {
    /// The underlying tree node (`kind == ItemKind::Fn`).
    pub item: &'a Item,
    /// Enclosing module names, outermost first (inline `mod`s only — the
    /// file-to-module mapping is the caller's concern).
    pub modules: Vec<&'a str>,
    /// Self-type head of the enclosing `impl`/`trait`, if any.
    pub impl_type: Option<&'a str>,
}

impl ItemTree {
    /// Parses `tokens` into an item tree. Never fails; unrecognised
    /// regions simply contribute no items.
    pub fn parse(tokens: &[Token]) -> ItemTree {
        let mut p = Parser { toks: tokens };
        ItemTree { items: p.parse_items(0, tokens.len(), false) }
    }

    /// Convenience: lex `source` and parse the result.
    pub fn parse_source(source: &str) -> ItemTree {
        ItemTree::parse(&lex(source))
    }

    /// Flattens the tree into all function nodes, each with its module
    /// path and owning impl type, in source order.
    pub fn fns(&self) -> Vec<FnView<'_>> {
        let mut out = Vec::new();
        let mut modules = Vec::new();
        for item in &self.items {
            collect_fns(item, &mut modules, None, &mut out);
        }
        out
    }
}

fn collect_fns<'a>(
    item: &'a Item,
    modules: &mut Vec<&'a str>,
    impl_type: Option<&'a str>,
    out: &mut Vec<FnView<'a>>,
) {
    match item.kind {
        ItemKind::Fn => {
            out.push(FnView { item, modules: modules.clone(), impl_type });
            // Nested items inside the fn body (impl-in-fn, fn-in-fn).
            for child in &item.children {
                collect_fns(child, modules, None, out);
            }
        }
        ItemKind::Mod => {
            modules.push(&item.name);
            for child in &item.children {
                collect_fns(child, modules, None, out);
            }
            modules.pop();
        }
        ItemKind::Impl | ItemKind::Trait => {
            for child in &item.children {
                collect_fns(child, modules, Some(&item.name), out);
            }
        }
        ItemKind::Use => {}
    }
}

struct Parser<'a> {
    toks: &'a [Token],
}

/// Keywords that may prefix a `fn` item (`pub const unsafe extern fn` —
/// the workspace forbids `unsafe`, but the parser stays general).
const FN_PREFIXES: [&str; 4] = ["const", "async", "unsafe", "extern"];

impl Parser<'_> {
    fn ident_at(&self, i: usize) -> Option<&str> {
        self.toks.get(i).filter(|t| t.kind == TokenKind::Ident).map(|t| t.text.as_str())
    }

    fn punct_at(&self, i: usize, c: char) -> bool {
        self.toks.get(i).is_some_and(|t| t.is_punct(c))
    }

    /// Parses the items of the token region `[lo, hi)`; `inherited_test`
    /// marks the whole region as test-gated.
    fn parse_items(&mut self, lo: usize, hi: usize, inherited_test: bool) -> Vec<Item> {
        let mut items = Vec::new();
        let mut i = lo;
        while i < hi {
            // Outer attributes: `#[…]` (inner `#![…]` attributes are
            // skipped — they describe the enclosing scope, not an item).
            let mut cfg_test = inherited_test;
            let mut saw_attr = false;
            while self.punct_at(i, '#') && i + 1 < hi {
                let inner = self.punct_at(i + 1, '!');
                let open = if inner { i + 2 } else { i + 1 };
                if !self.punct_at(open, '[') {
                    break;
                }
                let (gates_test, next) = self.scan_attribute(open, hi);
                if !inner {
                    cfg_test |= gates_test;
                    saw_attr = true;
                }
                i = next;
            }
            // Visibility: `pub` / `pub(crate)` / `pub(in path)`.
            if self.ident_at(i) == Some("pub") {
                i += 1;
                if self.punct_at(i, '(') {
                    i = self.skip_balanced(i, hi, '(', ')');
                }
            }
            match self.ident_at(i) {
                Some("mod") if self.toks.get(i + 1).is_some_and(|t| t.kind == TokenKind::Ident) => {
                    let (item, next) = self.parse_mod(i, hi, cfg_test);
                    items.push(item);
                    i = next;
                }
                Some("fn") if self.toks.get(i + 1).is_some_and(|t| t.kind == TokenKind::Ident) => {
                    let (item, next) = self.parse_fn(i, hi, cfg_test);
                    items.push(item);
                    i = next;
                }
                Some(kw @ ("impl" | "trait")) => {
                    let (item, next) = self.parse_impl_or_trait(i, hi, kw == "trait", cfg_test);
                    if let Some(item) = item {
                        items.push(item);
                    }
                    i = next;
                }
                Some("use") => {
                    let (item, next) = self.parse_use(i, hi, cfg_test);
                    if let Some(item) = item {
                        items.push(item);
                    }
                    i = next;
                }
                Some(kw) if FN_PREFIXES.contains(&kw) => {
                    // `const fn f…` / `const NAME: …` — peek past the
                    // prefix chain; only a following `fn` makes it a fn.
                    let mut j = i + 1;
                    while self.ident_at(j).is_some_and(|k| FN_PREFIXES.contains(&k))
                        || self.toks.get(j).is_some_and(|t| t.kind == TokenKind::StrLit)
                    {
                        j += 1;
                    }
                    if self.ident_at(j) == Some("fn") {
                        i = j; // re-dispatch on the `fn` next iteration
                    } else {
                        i = self.skip_statement_like(i, hi);
                    }
                }
                Some("struct" | "enum" | "union" | "static" | "type" | "macro_rules") => {
                    i = self.skip_statement_like(i, hi);
                }
                _ => {
                    // Expression token (inside a fn body) or stray input:
                    // balanced skipping keeps nested braces from being
                    // misread as item boundaries, everything else is
                    // stepped over. Attributes on non-items fall out here.
                    let _ = saw_attr;
                    if self.punct_at(i, '{') {
                        i = self.skip_balanced(i, hi, '{', '}');
                    } else {
                        i += 1;
                    }
                }
            }
        }
        items
    }

    /// Scans one attribute starting at its `[`. Returns whether it gates
    /// test code and the index just past the closing `]`.
    fn scan_attribute(&self, open: usize, hi: usize) -> (bool, usize) {
        let mut depth = 0usize;
        let mut saw_cfg = false;
        let mut saw_not = false;
        let mut saw_test = false;
        let mut bare_test = false;
        let mut j = open;
        while j < hi {
            let t = &self.toks[j];
            if t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            } else if t.is_ident("cfg") || t.is_ident("cfg_attr") {
                saw_cfg = true;
            } else if t.is_ident("not") {
                saw_not = true;
            } else if t.is_ident("test") {
                saw_test = true;
                if j == open + 1 {
                    bare_test = true;
                }
            }
            j += 1;
        }
        ((saw_cfg && saw_test && !saw_not) || bare_test, j)
    }

    /// `i` points at `mod`.
    fn parse_mod(&mut self, i: usize, hi: usize, cfg_test: bool) -> (Item, usize) {
        let name = self.toks[i + 1].text.clone();
        let line = self.toks[i].line;
        let mut j = i + 2;
        if self.punct_at(j, ';') {
            let item = Item {
                kind: ItemKind::Mod,
                name,
                line,
                cfg_test,
                body: None,
                children: Vec::new(),
            };
            return (item, j + 1);
        }
        // Skip anything up to the opening brace (`mod x {` has nothing,
        // but stay robust).
        while j < hi && !self.punct_at(j, '{') {
            j += 1;
        }
        let end = self.skip_balanced(j, hi, '{', '}');
        let body = (j + 1, end.saturating_sub(1));
        let children = self.parse_items(body.0, body.1, cfg_test);
        (Item { kind: ItemKind::Mod, name, line, cfg_test, body: Some(body), children }, end)
    }

    /// `i` points at `fn`; the next token is the name.
    fn parse_fn(&mut self, i: usize, hi: usize, cfg_test: bool) -> (Item, usize) {
        let name = self.toks[i + 1].text.clone();
        let line = self.toks[i].line;
        // Find the body `{` or terminating `;` at bracket depth 0. Only
        // `(`/`[` nesting is tracked: generics can contain neither in
        // signature position (const-generic braces are the documented
        // exception).
        let mut depth = 0usize;
        let mut j = i + 2;
        while j < hi {
            let t = &self.toks[j];
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth = depth.saturating_sub(1);
            } else if depth == 0 && t.is_punct(';') {
                let item = Item {
                    kind: ItemKind::Fn,
                    name,
                    line,
                    cfg_test,
                    body: None,
                    children: Vec::new(),
                };
                return (item, j + 1);
            } else if depth == 0 && t.is_punct('{') {
                let end = self.skip_balanced(j, hi, '{', '}');
                let body = (j + 1, end.saturating_sub(1));
                let children = self.parse_items(body.0, body.1, cfg_test);
                let item =
                    Item { kind: ItemKind::Fn, name, line, cfg_test, body: Some(body), children };
                return (item, end);
            }
            j += 1;
        }
        (Item { kind: ItemKind::Fn, name, line, cfg_test, body: None, children: Vec::new() }, hi)
    }

    /// `i` points at `impl` or `trait`.
    fn parse_impl_or_trait(
        &mut self,
        i: usize,
        hi: usize,
        is_trait: bool,
        cfg_test: bool,
    ) -> (Option<Item>, usize) {
        let line = self.toks[i].line;
        // Header runs to the `{` at paren depth 0 (or `;` for bodyless
        // forms like `impl Foo;` which do not occur but keep us safe).
        let mut depth = 0usize;
        let mut j = i + 1;
        let mut header_idents: Vec<(usize, String)> = Vec::new();
        while j < hi {
            let t = &self.toks[j];
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth = depth.saturating_sub(1);
            } else if depth == 0 && t.is_punct('{') {
                break;
            } else if depth == 0 && t.is_punct(';') {
                return (None, j + 1);
            } else if t.kind == TokenKind::Ident {
                header_idents.push((j, t.text.clone()));
            }
            j += 1;
        }
        if j >= hi {
            return (None, hi);
        }
        let name = if is_trait {
            header_idents.first().map(|(_, n)| n.clone()).unwrap_or_default()
        } else {
            impl_self_type(&header_idents)
        };
        let end = self.skip_balanced(j, hi, '{', '}');
        let body = (j + 1, end.saturating_sub(1));
        let children = self.parse_items(body.0, body.1, cfg_test);
        let kind = if is_trait { ItemKind::Trait } else { ItemKind::Impl };
        (Some(Item { kind, name, line, cfg_test, body: Some(body), children }), end)
    }

    /// `i` points at `use`.
    fn parse_use(&mut self, i: usize, hi: usize, cfg_test: bool) -> (Option<Item>, usize) {
        let line = self.toks[i].line;
        let mut j = i + 1;
        let mut first = None;
        let mut depth = 0usize;
        while j < hi {
            let t = &self.toks[j];
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth = depth.saturating_sub(1);
            } else if depth == 0 && t.is_punct(';') {
                j += 1;
                break;
            } else if t.kind == TokenKind::Ident && first.is_none() {
                first = Some(t.text.clone());
            }
            j += 1;
        }
        let name = first.unwrap_or_default();
        (
            Some(Item {
                kind: ItemKind::Use,
                name,
                line,
                cfg_test,
                body: None,
                children: Vec::new(),
            }),
            j,
        )
    }

    /// Skips a struct/enum/const/static/type/macro_rules item: to the
    /// first `;` at depth 0, or past a balanced `{…}` body.
    fn skip_statement_like(&mut self, i: usize, hi: usize) -> usize {
        let mut depth = 0usize;
        let mut j = i + 1;
        while j < hi {
            let t = &self.toks[j];
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth = depth.saturating_sub(1);
            } else if depth == 0 && t.is_punct('{') {
                return self.skip_balanced(j, hi, '{', '}');
            } else if depth == 0 && t.is_punct(';') {
                return j + 1;
            }
            j += 1;
        }
        hi
    }

    /// `i` points at the opening delimiter; returns the index just past
    /// its match (or `hi` when unbalanced).
    fn skip_balanced(&self, i: usize, hi: usize, open: char, close: char) -> usize {
        let mut depth = 0usize;
        let mut j = i;
        while j < hi {
            let t = &self.toks[j];
            if t.is_punct(open) {
                depth += 1;
            } else if t.is_punct(close) {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
        hi
    }
}

/// Extracts the self-type head from an impl header's identifier list:
/// the first identifier after `for` when present (`impl Trait for Type`),
/// otherwise the first identifier that is not a generic-param keyword.
fn impl_self_type(header_idents: &[(usize, String)]) -> String {
    const SKIP: [&str; 4] = ["dyn", "mut", "const", "where"];
    if let Some(pos) = header_idents.iter().position(|(_, n)| n == "for") {
        for (_, n) in &header_idents[pos + 1..] {
            if !SKIP.contains(&n.as_str()) {
                return n.clone();
            }
        }
    }
    for (_, n) in header_idents {
        if !SKIP.contains(&n.as_str()) && n != "for" {
            return n.clone();
        }
    }
    String::new()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(items: &[Item]) -> Vec<(&str, ItemKind)> {
        items.iter().map(|i| (i.name.as_str(), i.kind)).collect()
    }

    #[test]
    fn flat_items_parse_with_bodies() {
        let tree = ItemTree::parse_source(
            "use std::collections::HashMap;\n\
             pub fn alpha(x: u32) -> u32 { x + 1 }\n\
             mod inner { pub fn beta() {} }\n\
             impl Gamma { fn delta(&self) {} }\n",
        );
        assert_eq!(
            names(&tree.items),
            [
                ("std", ItemKind::Use),
                ("alpha", ItemKind::Fn),
                ("inner", ItemKind::Mod),
                ("Gamma", ItemKind::Impl),
            ]
        );
        assert!(tree.items[1].body.is_some());
        assert_eq!(names(&tree.items[2].children), [("beta", ItemKind::Fn)]);
        assert_eq!(names(&tree.items[3].children), [("delta", ItemKind::Fn)]);
    }

    #[test]
    fn cfg_test_gating_is_inherited_through_nesting() {
        let tree = ItemTree::parse_source(
            "pub fn prod() {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 mod nested { pub fn helper() {} }\n\
                 #[test]\n\
                 fn t() {}\n\
             }\n",
        );
        let fns = tree.fns();
        let flags: Vec<(&str, bool)> =
            fns.iter().map(|f| (f.item.name.as_str(), f.item.cfg_test)).collect();
        assert_eq!(flags, [("prod", false), ("helper", true), ("t", true)]);
    }

    #[test]
    fn cfg_not_test_is_production() {
        let tree = ItemTree::parse_source(
            "#[cfg(not(test))]\npub fn prod() { }\n#[cfg(test)]\nfn t() {}\n",
        );
        let fns = tree.fns();
        assert!(!fns[0].item.cfg_test, "cfg(not(test)) gates production code");
        assert!(fns[1].item.cfg_test);
    }

    #[test]
    fn impl_in_fn_is_recovered_as_nested_items() {
        let tree = ItemTree::parse_source(
            "pub fn outer() -> u32 {\n\
                 struct Local(u32);\n\
                 impl Local { fn get(&self) -> u32 { self.0 } }\n\
                 fn helper() -> u32 { 7 }\n\
                 Local(helper()).get()\n\
             }\n",
        );
        let fns = tree.fns();
        let got: Vec<&str> = fns.iter().map(|f| f.item.name.as_str()).collect();
        assert_eq!(got, ["outer", "get", "helper"]);
        assert_eq!(fns[1].impl_type, Some("Local"));
    }

    #[test]
    fn raw_ident_fn_names_are_recorded_bare() {
        let tree =
            ItemTree::parse_source("pub fn r#loop() {}\npub fn r#match(x: u32) -> u32 { x }\n");
        let got: Vec<&str> = tree.fns().iter().map(|f| f.item.name.as_str()).collect();
        assert_eq!(got, ["loop", "match"]);
    }

    #[test]
    fn trait_for_impl_records_the_self_type() {
        let tree = ItemTree::parse_source(
            "impl core::fmt::Display for Report { fn fmt(&self) {} }\n\
             impl<T: Clone> Wrapper<T> { fn unwrap_inner(self) -> T { self.0 } }\n",
        );
        assert_eq!(tree.items[0].name, "Report");
        // `T` is the generic parameter; the heuristic takes the first
        // header identifier, which for `impl<T: Clone> Wrapper<T>` is `T`
        // — acceptable for resolution (methods still match by name), but
        // pin the current behavior so changes are deliberate.
        let fns = tree.fns();
        assert_eq!(fns[1].item.name, "unwrap_inner");
    }

    #[test]
    fn fn_signatures_without_bodies_have_no_body() {
        let tree = ItemTree::parse_source(
            "trait T { fn sig(&self); fn with_default(&self) -> u32 { 1 } }",
        );
        let fns = tree.fns();
        assert_eq!(fns[0].item.name, "sig");
        assert!(fns[0].item.body.is_none());
        assert!(fns[1].item.body.is_some());
    }
}
