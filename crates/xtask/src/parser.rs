//! Item parser for the static analyzer: extracts `fn` items (with
//! their enclosing `impl`/`trait` type), the call expressions inside
//! each body, and the index-expression sites, from the token stream the
//! lexer produces.
//!
//! This is deliberately not a full Rust parser.  It tracks exactly the
//! structure the call graph needs — brace nesting, `impl`/`trait`
//! headers, `fn` signatures, call forms (`f(..)`, `x.m(..)`,
//! `T::f(..)`, `m!(..)`, turbofish), and `expr[..]` index sites — and
//! is conservative everywhere else.  Soundness caveats are documented
//! in DESIGN.md § Static checks.

use crate::lexer::{Lexed, Tok, TokKind};

/// How a call site is written; resolution differs per form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `f(..)` — a free function (or tuple-struct/variant constructor).
    Free,
    /// `x.m(..)` — receiver type unknown; resolves by simple name.
    Method,
    /// `Q::f(..)` — the last path qualifier (`Q`) is kept as a hint.
    Path(String),
    /// `m!(..)` — macros are pattern-matched, never resolved.
    Macro,
}

#[derive(Debug, Clone)]
pub struct Call {
    /// 0-based line of the call.
    pub line: usize,
    pub name: String,
    pub kind: CallKind,
}

/// One `fn` item with a body.
#[derive(Debug)]
pub struct FnItem {
    pub name: String,
    /// Enclosing `impl`/`trait` type, e.g. `IncomingBuffers`.
    pub impl_type: Option<String>,
    /// 0-based line of the `fn` keyword.
    pub sig_line: usize,
    /// 0-based inclusive line range of the body (opening to closing brace).
    pub body: (usize, usize),
    pub calls: Vec<Call>,
    /// 0-based lines of `expr[..]` index expressions (each can panic).
    pub index_sites: Vec<usize>,
}

impl FnItem {
    /// `Type::name` when inside an impl/trait, else the simple name.
    pub fn qualified(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Keywords that look like call/index heads but are not.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "static", "struct", "super", "trait", "type", "union", "unsafe", "use",
    "where", "while", "yield",
];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// What a pending `{` opens once the main walk reaches it.
enum Pending {
    Impl(String),
    Fn(usize),
}

/// Parse the token stream into `fn` items.  Tokens at or after
/// `test_cut` (0-based line) are ignored entirely — test modules sit at
/// the bottom of every module in this repo.
pub fn parse_fns(lexed: &Lexed, test_cut: usize) -> Vec<FnItem> {
    let toks: Vec<&Tok> = lexed.tokens.iter().filter(|t| t.line < test_cut).collect();
    let mut fns: Vec<FnItem> = Vec::new();
    // (type, depth inside the impl body)
    let mut impl_stack: Vec<(String, usize)> = Vec::new();
    // (fn index, depth inside the fn body)
    let mut fn_stack: Vec<(usize, usize)> = Vec::new();
    let mut pending: std::collections::HashMap<usize, Pending> = std::collections::HashMap::new();
    let mut depth = 0usize;
    // Token index of the `{` opening the body of the `fn` whose signature
    // is being walked: an `impl` before it is `impl Trait` in argument or
    // return position, not an impl block.
    let mut sig_open = 0usize;

    let is_punct = |i: usize, c: &str| {
        toks.get(i)
            .is_some_and(|t| t.kind == TokKind::Punct && t.text == c)
    };
    let ident_at = |i: usize| {
        toks.get(i)
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
    };

    let mut i = 0usize;
    while i < toks.len() {
        let t = toks[i];
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "{") => {
                depth += 1;
                match pending.remove(&i) {
                    Some(Pending::Impl(ty)) => impl_stack.push((ty, depth)),
                    Some(Pending::Fn(fi)) => fn_stack.push((fi, depth)),
                    None => {}
                }
            }
            (TokKind::Punct, "}") => {
                depth = depth.saturating_sub(1);
                while impl_stack.last().is_some_and(|(_, d)| *d > depth) {
                    impl_stack.pop();
                }
                while let Some(&(fi, d)) = fn_stack.last() {
                    if d > depth {
                        fns[fi].body.1 = t.line;
                        fn_stack.pop();
                    } else {
                        break;
                    }
                }
            }
            (TokKind::Ident, "impl") | (TokKind::Ident, "trait") if i >= sig_open => {
                if let Some((open, ty)) = scan_impl_header(&toks, i) {
                    pending.insert(open, Pending::Impl(ty));
                }
            }
            (TokKind::Ident, "fn") => {
                if let Some(name) = ident_at(i + 1) {
                    if let Some(open) = scan_fn_body_open(&toks, i + 2) {
                        let fi = fns.len();
                        fns.push(FnItem {
                            name: name.to_string(),
                            impl_type: impl_stack.last().map(|(t, _)| t.clone()),
                            sig_line: t.line,
                            body: (toks[open].line, toks[open].line),
                            calls: Vec::new(),
                            index_sites: Vec::new(),
                        });
                        pending.insert(open, Pending::Fn(fi));
                        sig_open = open;
                    }
                }
            }
            (TokKind::Ident, name) if !fn_stack.is_empty() && !is_keyword(name) => {
                // Skip the fn name in a nested `fn` definition (handled
                // above) — prev token `fn` means this ident is a def.
                let prev_is_fn = i > 0 && ident_at(i - 1) == Some("fn");
                if !prev_is_fn {
                    if let Some(call) = call_at(&toks, i) {
                        let fi = fn_stack.last().map(|&(fi, _)| fi);
                        if let Some(fi) = fi {
                            fns[fi].calls.push(call);
                        }
                    }
                }
            }
            (TokKind::Punct, "[") if !fn_stack.is_empty() => {
                // `expr[..]`: an index/slice site when the `[` follows a
                // value-producing token.  `#[attr]`, `let [a, b] = ..`,
                // array types `: [u8; 4]`, and `vec![..]` all have a
                // non-value token (or keyword) before the bracket.
                let indexes = match toks.get(i.wrapping_sub(1)) {
                    Some(p) if p.kind == TokKind::Ident => !is_keyword(&p.text),
                    Some(p) if p.kind == TokKind::Punct => p.text == ")" || p.text == "]",
                    _ => false,
                } && i > 0;
                if indexes {
                    if let Some(&(fi, _)) = fn_stack.last() {
                        fns[fi].index_sites.push(t.line);
                    }
                }
            }
            _ => {}
        }
        // `is_punct` kept for clarity of intent in scan helpers.
        let _ = &is_punct;
        i += 1;
    }
    // Close any frame still open at EOF.
    if let Some(last_line) = toks.last().map(|t| t.line) {
        for &(fi, _) in &fn_stack {
            fns[fi].body.1 = last_line;
        }
    }
    fns
}

/// From an `impl`/`trait` token, find the `{` that opens the body and
/// the type name: the last path segment before the brace, taken after
/// `for` when present (`impl Trait for Type`), skipping generics.
fn scan_impl_header(toks: &[&Tok], start: usize) -> Option<(usize, String)> {
    let mut angle = 0i32;
    let mut ty: Option<String> = None;
    let mut after_for = false;
    let mut j = start + 1;
    while j < toks.len() {
        let t = toks[j];
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "<") if !arrow_at(toks, j) => angle += 1,
            (TokKind::Punct, ">") if !arrow_at(toks, j) => angle -= 1,
            (TokKind::Punct, "{") if angle <= 0 => {
                return ty.map(|ty| (j, ty));
            }
            (TokKind::Punct, ";") if angle <= 0 => return None,
            (TokKind::Ident, "for") if angle <= 0 => {
                after_for = true;
                ty = None;
            }
            (TokKind::Ident, "where") if angle <= 0 => {
                // Type is settled; keep scanning for the brace.
            }
            (TokKind::Ident, name) if angle <= 0 && !is_keyword(name) => {
                // Last path segment wins (`routing::IncomingBuffers`).
                let settled = ty.is_some() && !after_for;
                if !settled || after_for {
                    ty = Some(name.to_string());
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// `>` (or `<`) that is part of a `->` arrow, not an angle bracket.
fn arrow_at(toks: &[&Tok], j: usize) -> bool {
    toks[j].text == ">" && j > 0 && toks[j - 1].kind == TokKind::Punct && toks[j - 1].text == "-"
}

/// From just past a fn name, find the `{` opening its body; `None` for
/// a bodyless trait-method declaration (`;` first).
fn scan_fn_body_open(toks: &[&Tok], start: usize) -> Option<usize> {
    let mut angle = 0i32;
    let mut j = start;
    while j < toks.len() {
        let t = toks[j];
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "<") if !arrow_at(toks, j) => angle += 1,
            (TokKind::Punct, ">") if !arrow_at(toks, j) => angle -= 1,
            (TokKind::Punct, "{") if angle <= 0 => return Some(j),
            (TokKind::Punct, ";") if angle <= 0 => return None,
            _ => {}
        }
        j += 1;
    }
    None
}

/// Classify the ident at `i` as a call head, if it is one.
fn call_at(toks: &[&Tok], i: usize) -> Option<Call> {
    let t = toks[i];
    let next = |k: usize| toks.get(i + k);
    let punct =
        |k: usize, c: &str| next(k).is_some_and(|t| t.kind == TokKind::Punct && t.text == c);

    // `name!(..)` / `name![..]` / `name!{..}` — macro invocation.
    if punct(1, "!") && (punct(2, "(") || punct(2, "[") || punct(2, "{")) {
        return Some(Call {
            line: t.line,
            name: t.text.clone(),
            kind: CallKind::Macro,
        });
    }

    // `name::<..>(..)` — turbofish; skip the generics, require `(`.
    let paren_at = if punct(1, ":") && punct(2, ":") && punct(3, "<") {
        let mut angle = 0i32;
        let mut j = i + 3;
        loop {
            match toks.get(j) {
                Some(tk) if tk.kind == TokKind::Punct && tk.text == "<" && !arrow_at(toks, j) => {
                    angle += 1
                }
                Some(tk) if tk.kind == TokKind::Punct && tk.text == ">" && !arrow_at(toks, j) => {
                    angle -= 1;
                    if angle == 0 {
                        break j + 1;
                    }
                }
                Some(_) => {}
                None => return None,
            }
            j += 1;
        }
    } else {
        i + 1
    };
    if !toks
        .get(paren_at)
        .is_some_and(|t| t.kind == TokKind::Punct && t.text == "(")
    {
        return None;
    }

    // Classify by what precedes the name.
    let prev = |k: usize| i.checked_sub(k).and_then(|j| toks.get(j));
    let prev_punct =
        |k: usize, c: &str| prev(k).is_some_and(|t| t.kind == TokKind::Punct && t.text == c);

    let kind = if prev_punct(1, ".") {
        CallKind::Method
    } else if prev_punct(1, ":") && prev_punct(2, ":") {
        match prev(3) {
            Some(q) if q.kind == TokKind::Ident && !is_keyword(&q.text) => {
                CallKind::Path(q.text.clone())
            }
            Some(q) if q.kind == TokKind::Ident && (q.text == "Self" || q.text == "self") => {
                CallKind::Path(q.text.clone())
            }
            _ => CallKind::Path(String::new()), // `<T as Trait>::f(..)` etc.
        }
    } else {
        CallKind::Free
    };
    Some(Call {
        line: t.line,
        name: t.text.clone(),
        kind,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Vec<FnItem> {
        parse_fns(&lex(src), usize::MAX)
    }

    #[test]
    fn extracts_fns_with_impl_types() {
        let src = "
impl IncomingBuffers {
    pub fn write(&self, data: &[u8]) -> Result<(), Full> {
        self.reserve(data.len())
    }
}
fn free_helper() {}
impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        helper()
    }
}
trait Sink {
    fn push_frame(&self);
    fn flush(&self) {
        noop()
    }
}";
        let fns = parse(src);
        let quals: Vec<String> = fns.iter().map(|f| f.qualified()).collect();
        assert_eq!(
            quals,
            vec![
                "IncomingBuffers::write",
                "free_helper",
                "Violation::fmt",
                "Sink::flush",
            ]
        );
    }

    #[test]
    fn extracts_call_kinds() {
        let src = "
fn caller() {
    free_fn(1);
    recv.method_call(2);
    Admission::admit(3);
    Self::helper();
    iter.collect::<Vec<_>>();
    panic!(\"boom\");
    let v = vec![1, 2];
}";
        let fns = parse(src);
        let calls = &fns[0].calls;
        let find = |n: &str| {
            calls
                .iter()
                .find(|c| c.name == n)
                .unwrap_or_else(|| panic!("{n}"))
        };
        assert_eq!(find("free_fn").kind, CallKind::Free);
        assert_eq!(find("method_call").kind, CallKind::Method);
        assert_eq!(find("admit").kind, CallKind::Path("Admission".into()));
        assert_eq!(find("helper").kind, CallKind::Path("Self".into()));
        assert_eq!(find("collect").kind, CallKind::Method);
        assert_eq!(find("panic").kind, CallKind::Macro);
        assert_eq!(find("vec").kind, CallKind::Macro);
    }

    #[test]
    fn index_sites_fire_on_expressions_not_types_or_attrs() {
        let src = "
fn f(xs: &[u8], m: &Map) -> u8 {
    #[allow(dead_code)]
    let t: [u8; 4] = [0; 4];
    let [a, _b] = [1u8, 2];
    let x = xs[0];
    let y = m.rows()[1];
    let z = &xs[1..3];
    a + x + y + z[0]
}";
        let fns = parse(src);
        // xs[0], rows()[1], xs[1..3], z[0] — not the type, array literal,
        // pattern, or attribute brackets.
        assert_eq!(fns[0].index_sites.len(), 4, "{:?}", fns[0].index_sites);
    }

    #[test]
    fn nested_fns_attribute_calls_to_the_innermost() {
        let src = "
fn outer() {
    inner_call();
    fn nested() {
        deep_call();
    }
    after_nested();
}";
        let fns = parse(src);
        let outer = fns.iter().find(|f| f.name == "outer").unwrap();
        let nested = fns.iter().find(|f| f.name == "nested").unwrap();
        let names = |f: &FnItem| f.calls.iter().map(|c| c.name.clone()).collect::<Vec<_>>();
        assert_eq!(names(outer), vec!["inner_call", "after_nested"]);
        assert_eq!(names(nested), vec!["deep_call"]);
    }

    #[test]
    fn impl_trait_in_a_signature_does_not_open_an_impl_block() {
        let src = "
impl Buffers {
    fn consume(&self, mut f: impl FnMut(&[u8])) -> impl Iterator<Item = u8> {
        f(&self.bytes[..]);
        self.iter()
    }
    fn after(&self) { tail(); }
}";
        let fns = parse(src);
        let quals: Vec<String> = fns.iter().map(|f| f.qualified()).collect();
        assert_eq!(quals, vec!["Buffers::consume", "Buffers::after"]);
        let names: Vec<String> = fns[0].calls.iter().map(|c| c.name.clone()).collect();
        assert_eq!(names, vec!["f", "iter"]);
        assert_eq!(fns[0].index_sites.len(), 1);
    }

    #[test]
    fn test_modules_are_excluded() {
        let src = "
fn real() { a(); }
#[cfg(test)]
mod tests {
    fn test_only() { b(); }
}";
        let lexed = lex(src);
        let cut = src
            .lines()
            .position(|l| l.starts_with("#[cfg(test)]"))
            .unwrap();
        let fns = parse_fns(&lexed, cut);
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "real");
    }

    #[test]
    fn struct_literals_and_comparisons_are_not_calls() {
        let src = "
fn f(a: usize, b: usize) -> Foo {
    if a != b { marker() }
    Foo { field: a }
}";
        let fns = parse(src);
        let names: Vec<String> = fns[0].calls.iter().map(|c| c.name.clone()).collect();
        assert_eq!(names, vec!["marker"]);
    }

    #[test]
    fn body_line_ranges_cover_the_braces() {
        let src = "fn f() {\n  a();\n  b();\n}\nfn g() { c(); }";
        let fns = parse(src);
        assert_eq!(fns[0].body, (0, 3));
        assert_eq!(fns[1].body, (4, 4));
    }
}
