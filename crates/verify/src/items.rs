//! Item extraction: functions, impl/trait context and struct fields from the
//! token stream.
//!
//! This is the middle layer of the static analyzer: [`crate::lex`] produces
//! tokens, this module recovers the *item structure* the call-graph builder
//! needs — every `fn` with its enclosing `impl`/`trait` type, its signature
//! and body token ranges, and whether it is test-only (`#[cfg(test)]` module
//! or `#[test]`/`#[cfg(test)]` attribute, or a file under `tests/`,
//! `examples/` or `benches/`) — plus a workspace-wide map of struct field
//! types, which powers the approximate receiver typing in
//! [`crate::callgraph`].
//!
//! The parser is deliberately approximate (no expressions, no generics
//! resolution); `docs/verification.md` lists the approximations and why they
//! are sound enough for the three transitive rules.

use std::collections::BTreeMap;
use std::ops::Range;

use crate::lex::{split_lines, tokenize, SplitLine, Tok, Token};

/// One source file prepared for analysis.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// Name of the crate the file belongs to (e.g. `drom-slurm`).
    pub crate_name: String,
    /// True for files under `tests/`, `examples/` or `benches/` — they are
    /// linted but never act as call-resolution targets or entry points.
    pub test_context: bool,
    /// Per-line code/comment split (comment channel feeds justification
    /// marker searches).
    pub lines: Vec<SplitLine>,
    /// Token stream of the code channel.
    pub tokens: Vec<Token>,
}

impl SourceFile {
    /// Prepares a source file for analysis.
    pub fn new(rel: &str, crate_name: &str, test_context: bool, source: &str) -> Self {
        let lines = split_lines(source);
        let tokens = tokenize(&lines);
        SourceFile {
            rel: rel.to_string(),
            crate_name: crate_name.to_string(),
            test_context,
            lines,
            tokens,
        }
    }
}

/// A function item recovered from a source file.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Index of the file in the analysis file list.
    pub file: usize,
    /// Function name.
    pub name: String,
    /// Enclosing `impl` self type (last path segment), if any. For trait
    /// default methods this is the trait name.
    pub self_ty: Option<String>,
    /// Enclosing `impl … for` trait name, or the trait for methods declared
    /// inside a `trait` block.
    pub trait_name: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Token range of the signature (after the name, up to the body brace or
    /// the terminating semicolon).
    pub sig: Range<usize>,
    /// Token range of the body (exclusive of the outer braces); `None` for
    /// bodyless trait-method declarations.
    pub body: Option<Range<usize>>,
    /// Test-only code: `#[cfg(test)]` module/attribute, `#[test]`, or a
    /// test-context file.
    pub is_test: bool,
}

impl FnItem {
    /// `Type::name` (or the bare name for free functions) — the qualified
    /// name used in reports and baselines.
    pub fn qualified(&self) -> String {
        match &self.self_ty {
            Some(ty) => format!("{ty}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Items extracted from one file.
#[derive(Debug, Default)]
pub struct FileItems {
    /// Functions in source order.
    pub fns: Vec<FnItem>,
    /// `(owner struct, field name, type head)` triples, e.g.
    /// `("PolicyScheduler", "index", "SchedIndex")`.
    pub fields: Vec<(String, String, String)>,
}

/// Rust keywords that must not be mistaken for call names.
pub const KEYWORDS: &[&str] = &[
    "as", "async", "await", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern",
    "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "self", "Self", "static", "struct", "super", "trait", "true", "type",
    "unsafe", "use", "where", "while",
];

/// Is `name` a Rust keyword?
pub fn is_keyword(name: &str) -> bool {
    KEYWORDS.contains(&name)
}

#[derive(Debug, Clone)]
enum ScopeKind {
    Mod,
    Impl {
        self_ty: String,
        trait_name: Option<String>,
    },
    Trait {
        name: String,
    },
}

#[derive(Debug, Clone)]
struct Scope {
    kind: ScopeKind,
    /// The scope (or an ancestor) carries `#[cfg(test)]`.
    test: bool,
    close: usize,
}

/// Computes, for every `{` token, the index of its matching `}`.
fn brace_matches(tokens: &[Token]) -> BTreeMap<usize, usize> {
    let mut stack = Vec::new();
    let mut map = BTreeMap::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.is_punct('{') {
            stack.push(i);
        } else if t.is_punct('}') {
            if let Some(open) = stack.pop() {
                map.insert(open, i);
            }
        }
    }
    map
}

/// Skips a balanced `<…>` group starting at `i` (which must point at `<`).
/// Returns the index just past the closing `>`. `->` arrows never reach here
/// because the caller only enters on a `<`.
fn skip_angles(tokens: &[Token], mut i: usize) -> usize {
    let mut depth = 0usize;
    let mut prev_minus = false;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') && !prev_minus {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return i + 1;
            }
        }
        prev_minus = t.is_punct('-');
        i += 1;
    }
    i
}

/// Reads a type path at `i`: `A::B::C` with optional generic args after any
/// segment. Returns (segments, next index).
fn read_path(tokens: &[Token], mut i: usize) -> (Vec<String>, usize) {
    let mut segs = Vec::new();
    while let Some(seg) = tokens.get(i).and_then(|t| t.ident()) {
        segs.push(seg.to_string());
        i += 1;
        if tokens.get(i).is_some_and(|t| t.is_punct('<')) {
            i = skip_angles(tokens, i);
        }
        if tokens.get(i).is_some_and(|t| t.is_punct(':'))
            && tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
        {
            i += 2;
        } else {
            break;
        }
    }
    (segs, i)
}

/// Scans forward from `i` to the first `{` at angle/paren/bracket depth 0,
/// or a `;` at depth 0 (returns its index with `found_body = false`).
fn scan_to_body(tokens: &[Token], mut i: usize) -> (usize, bool) {
    let mut angle = 0isize;
    let mut paren = 0isize;
    let mut bracket = 0isize;
    let mut prev_minus = false;
    while i < tokens.len() {
        let t = &tokens[i];
        match t.tok {
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') if !prev_minus => angle = (angle - 1).max(0),
            Tok::Punct('(') => paren += 1,
            Tok::Punct(')') => paren -= 1,
            Tok::Punct('[') => bracket += 1,
            Tok::Punct(']') => bracket -= 1,
            Tok::Punct('{') if angle == 0 && paren == 0 && bracket == 0 => return (i, true),
            Tok::Punct(';') if angle == 0 && paren == 0 && bracket == 0 => return (i, false),
            _ => {}
        }
        prev_minus = t.is_punct('-');
        i += 1;
    }
    (i, false)
}

/// Extracts the head type name from a type token sequence starting at `i`:
/// skips `&`, `mut`, `dyn`, `impl` and lifetimes, then takes the last
/// segment of the leading path (`std::collections::HashMap<..>` → HashMap).
/// Returns `None` for tuple/array/fn-pointer types.
fn type_head(tokens: &[Token], mut i: usize, end: usize) -> Option<String> {
    while i < end {
        match &tokens[i].tok {
            Tok::Punct('&') | Tok::Punct('*') => i += 1,
            Tok::Punct('\'') => i += 2, // lifetime: quote + name
            Tok::Ident(s) if s == "mut" || s == "dyn" || s == "impl" || s == "const" => i += 1,
            // Smart pointers deref to their pointee for method dispatch:
            // `Box<dyn Policy>` must type as `Policy`, not `Box`.
            Tok::Ident(s)
                if matches!(
                    s.as_str(),
                    "Box" | "Rc" | "Arc" | "RefCell" | "Cell" | "Mutex" | "RwLock"
                ) && tokens.get(i + 1).is_some_and(|t| t.is_punct('<')) =>
            {
                i += 2;
            }
            Tok::Ident(_) => {
                let (segs, _) = read_path(tokens, i);
                return segs.last().cloned();
            }
            _ => return None,
        }
    }
    None
}

/// Public wrapper over `type_head` for sibling modules (receiver typing in
/// the call graph).
pub fn type_head_pub(tokens: &[Token], i: usize, end: usize) -> Option<String> {
    type_head(tokens, i, end)
}

/// Extracts all items from one file. `file_idx` is the file's index in the
/// analysis list; `test_context` marks whole-file test scope.
pub fn extract_items(file_idx: usize, file: &SourceFile) -> FileItems {
    let tokens = &file.tokens;
    let braces = brace_matches(tokens);
    let mut items = FileItems::default();
    let mut scopes: Vec<Scope> = Vec::new();
    let mut pending_test_attr = false;
    let mut i = 0;

    while i < tokens.len() {
        // Close scopes whose brace has passed.
        while scopes.last().is_some_and(|s| i > s.close) {
            scopes.pop();
        }
        let in_test_scope = file.test_context || scopes.iter().any(|s| s.test);
        let t = &tokens[i];

        // Attributes: `#[…]` / `#![…]`. Detect test-ness; skip the group.
        if t.is_punct('#') {
            let mut j = i + 1;
            if tokens.get(j).is_some_and(|t| t.is_punct('!')) {
                j += 1;
            }
            if tokens.get(j).is_some_and(|t| t.is_punct('[')) {
                let mut depth = 0isize;
                let mut idents = Vec::new();
                let mut k = j;
                while k < tokens.len() {
                    match &tokens[k].tok {
                        Tok::Punct('[') => depth += 1,
                        Tok::Punct(']') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        Tok::Ident(s) => idents.push(s.clone()),
                        _ => {}
                    }
                    k += 1;
                }
                let first = idents.first().map(String::as_str);
                let is_test = first == Some("test")
                    || (first == Some("cfg")
                        && idents.iter().any(|s| s == "test")
                        && !idents.iter().any(|s| s == "not"));
                pending_test_attr |= is_test;
                i = k + 1;
                continue;
            }
        }

        match t.ident() {
            Some("mod") => {
                // `mod name { … }` opens a scope; `mod name;` does not.
                if let Some(name_tok) = tokens.get(i + 1) {
                    if name_tok.ident().is_some()
                        && tokens.get(i + 2).is_some_and(|t| t.is_punct('{'))
                    {
                        let open = i + 2;
                        let close = braces.get(&open).copied().unwrap_or(tokens.len());
                        scopes.push(Scope {
                            kind: ScopeKind::Mod,
                            test: pending_test_attr || in_test_scope,
                            close,
                        });
                        pending_test_attr = false;
                        i = open + 1;
                        continue;
                    }
                }
                pending_test_attr = false;
                i += 1;
            }
            Some("impl") => {
                let mut j = i + 1;
                if tokens.get(j).is_some_and(|t| t.is_punct('<')) {
                    j = skip_angles(tokens, j);
                }
                let (first_path, after_first) = read_path(tokens, j);
                let mut self_ty = first_path.last().cloned();
                let mut trait_name = None;
                let mut j = after_first;
                if tokens.get(j).and_then(|t| t.ident()) == Some("for") {
                    let (second_path, after_second) = read_path(tokens, j + 1);
                    trait_name = self_ty.take();
                    self_ty = second_path.last().cloned();
                    j = after_second;
                }
                let (body_start, has_body) = scan_to_body(tokens, j);
                if has_body {
                    let close = braces.get(&body_start).copied().unwrap_or(tokens.len());
                    scopes.push(Scope {
                        kind: ScopeKind::Impl {
                            self_ty: self_ty.unwrap_or_default(),
                            trait_name,
                        },
                        test: pending_test_attr || in_test_scope,
                        close,
                    });
                    pending_test_attr = false;
                    i = body_start + 1;
                } else {
                    pending_test_attr = false;
                    i = body_start + 1;
                }
            }
            Some("trait") => {
                let name = tokens
                    .get(i + 1)
                    .and_then(|t| t.ident())
                    .unwrap_or("")
                    .to_string();
                let (body_start, has_body) = scan_to_body(tokens, i + 1);
                if has_body {
                    let close = braces.get(&body_start).copied().unwrap_or(tokens.len());
                    scopes.push(Scope {
                        kind: ScopeKind::Trait { name },
                        test: pending_test_attr || in_test_scope,
                        close,
                    });
                    i = body_start + 1;
                } else {
                    i = body_start + 1;
                }
                pending_test_attr = false;
            }
            Some("struct") | Some("enum") => {
                let name = tokens
                    .get(i + 1)
                    .and_then(|t| t.ident())
                    .unwrap_or("")
                    .to_string();
                let (body_start, has_body) = scan_to_body(tokens, i + 1);
                if has_body {
                    // Named fields — of the struct, or of any enum variant
                    // (`Model { curve: SpeedupCurve }` binds `curve` in
                    // match arms, so variant fields type receivers too).
                    let close = braces.get(&body_start).copied().unwrap_or(tokens.len());
                    parse_fields(tokens, body_start + 1, close, &name, &mut items.fields);
                    i = close + 1;
                } else {
                    // Tuple struct / unit struct: `scan_to_body` stopped at
                    // the `;` (tuple parens are skipped at depth > 0).
                    i = body_start + 1;
                }
                pending_test_attr = false;
            }
            Some("fn") => {
                let name = tokens
                    .get(i + 1)
                    .and_then(|t| t.ident())
                    .unwrap_or("")
                    .to_string();
                let sig_start = i + 2;
                let (body_start, has_body) = scan_to_body(tokens, sig_start);
                let (self_ty, trait_name) = scopes
                    .iter()
                    .rev()
                    .find_map(|s| match &s.kind {
                        ScopeKind::Impl {
                            self_ty,
                            trait_name,
                        } => Some((Some(self_ty.clone()), trait_name.clone())),
                        ScopeKind::Trait { name } => Some((Some(name.clone()), Some(name.clone()))),
                        _ => None,
                    })
                    .unwrap_or((None, None));
                let body = if has_body {
                    let close = braces.get(&body_start).copied().unwrap_or(tokens.len());
                    Some(body_start + 1..close)
                } else {
                    None
                };
                items.fns.push(FnItem {
                    file: file_idx,
                    name,
                    self_ty,
                    trait_name,
                    line: t.line,
                    sig: sig_start..body_start,
                    body: body.clone(),
                    is_test: in_test_scope || pending_test_attr,
                });
                pending_test_attr = false;
                // Continue scanning *inside* the body (nested items are rare
                // but legal); the scope stack ignores plain braces.
                i = body_start + 1;
            }
            _ => {
                // Visibility/qualifier tokens between an attribute and its
                // item (`#[cfg(test)] pub fn …`) must not clear the pending
                // test flag.
                let qualifier = matches!(
                    t.ident(),
                    Some("pub")
                        | Some("const")
                        | Some("async")
                        | Some("unsafe")
                        | Some("extern")
                        | Some("crate")
                        | Some("in")
                ) || t.is_punct('(')
                    || t.is_punct(')');
                if !qualifier {
                    pending_test_attr = false;
                }
                i += 1;
            }
        }
    }
    items
}

/// Parses named struct fields in `tokens[start..end]` into
/// `(owner, field, type head)` triples.
fn parse_fields(
    tokens: &[Token],
    start: usize,
    end: usize,
    owner: &str,
    out: &mut Vec<(String, String, String)>,
) {
    let mut i = start;
    while i < end {
        // Skip attributes and visibility.
        if tokens[i].is_punct('#') {
            let mut depth = 0isize;
            while i < end {
                match tokens[i].tok {
                    Tok::Punct('[') => depth += 1,
                    Tok::Punct(']') => {
                        depth -= 1;
                        if depth == 0 {
                            i += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
            continue;
        }
        if tokens[i].ident() == Some("pub") {
            i += 1;
            if tokens.get(i).is_some_and(|t| t.is_punct('(')) {
                while i < end && !tokens[i].is_punct(')') {
                    i += 1;
                }
                i += 1;
            }
            continue;
        }
        // `name : Type`
        if let Some(field) = tokens[i].ident() {
            if tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && !tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
            {
                if let Some(head) = type_head(tokens, i + 2, end) {
                    out.push((owner.to_string(), field.to_string(), head));
                }
                // Skip to the comma at depth 0.
                let mut depth = 0isize;
                let mut j = i + 2;
                let mut prev_minus = false;
                while j < end {
                    match tokens[j].tok {
                        Tok::Punct('<') | Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                        Tok::Punct('>') if !prev_minus => depth -= 1,
                        Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
                        Tok::Punct(',') if depth == 0 => break,
                        _ => {}
                    }
                    prev_minus = tokens[j].is_punct('-');
                    j += 1;
                }
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn extract(src: &str) -> FileItems {
        let f = SourceFile::new("crates/x/src/lib.rs", "x", false, src);
        extract_items(0, &f)
    }

    #[test]
    fn free_and_method_fns() {
        let items = extract(
            "fn free_one() {}\n\
             pub struct S { a: usize }\n\
             impl S {\n    pub fn method(&self) -> usize { self.a }\n}\n\
             impl Clone for S {\n    fn clone(&self) -> Self { S { a: self.a } }\n}\n",
        );
        let names: Vec<_> = items.fns.iter().map(|f| f.qualified()).collect();
        assert_eq!(names, vec!["free_one", "S::method", "S::clone"]);
        assert_eq!(items.fns[2].trait_name.as_deref(), Some("Clone"));
        assert_eq!(items.fields, vec![("S".into(), "a".into(), "usize".into())]);
    }

    #[test]
    fn trait_decls_and_default_methods() {
        let items = extract(
            "pub trait P: Send {\n    fn name(&self) -> &'static str;\n    fn hello(&self) { }\n}\n",
        );
        assert_eq!(items.fns.len(), 2);
        assert!(items.fns[0].body.is_none(), "decl has no body");
        assert!(items.fns[1].body.is_some(), "default method has a body");
        assert_eq!(items.fns[0].trait_name.as_deref(), Some("P"));
        assert_eq!(items.fns[0].self_ty.as_deref(), Some("P"));
    }

    #[test]
    fn cfg_test_module_and_test_attr() {
        let items = extract(
            "fn prod() {}\n\
             #[cfg(test)]\nmod tests {\n    fn helper() {}\n    #[test]\n    fn case() {}\n}\n\
             #[cfg(test)]\nfn test_only() {}\n\
             #[cfg(not(test))]\nfn prod_only() {}\n",
        );
        let flags: Vec<_> = items
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.is_test))
            .collect();
        assert_eq!(
            flags,
            vec![
                ("prod", false),
                ("helper", true),
                ("case", true),
                ("test_only", true),
                ("prod_only", false),
            ]
        );
    }

    #[test]
    fn impl_with_generics_and_where() {
        let items = extract(
            "impl<'a> PassState<'a> {\n    fn new(view: &ClusterView<'a>) -> Self { todo!() }\n}\n\
             impl<T> Wrapper<T> where T: Iterator<Item = usize> {\n    fn go(&self) {}\n}\n",
        );
        let names: Vec<_> = items.fns.iter().map(|f| f.qualified()).collect();
        assert_eq!(names, vec!["PassState::new", "Wrapper::go"]);
    }

    #[test]
    fn impl_trait_return_in_sig_is_not_an_impl_block() {
        let items = extract(
            "impl S {\n    pub fn positions(&self) -> impl Iterator<Item = usize> + '_ { [].into_iter() }\n    fn after(&self) {}\n}\n",
        );
        let names: Vec<_> = items.fns.iter().map(|f| f.qualified()).collect();
        assert_eq!(names, vec!["S::positions", "S::after"]);
    }

    #[test]
    fn qualified_path_impls() {
        let items = extract(
            "impl std::hash::Hasher for IdHasher {\n    fn finish(&self) -> u64 { 0 }\n}\n",
        );
        assert_eq!(items.fns[0].qualified(), "IdHasher::finish");
        assert_eq!(items.fns[0].trait_name.as_deref(), Some("Hasher"));
    }

    #[test]
    fn field_types_through_wrappers() {
        let items = extract(
            "struct T {\n    pub free: Vec<usize>,\n    index: SchedIndex,\n    ends: std::collections::HashMap<u64, u64>,\n    policy: Box<dyn SchedulerPolicy>,\n    name: &'static str,\n}\n",
        );
        let map: Vec<_> = items
            .fields
            .iter()
            .map(|(_, f, t)| (f.as_str(), t.as_str()))
            .collect();
        assert_eq!(
            map,
            vec![
                ("free", "Vec"),
                ("index", "SchedIndex"),
                ("ends", "HashMap"),
                ("policy", "SchedulerPolicy"),
                ("name", "str"),
            ]
        );
    }

    #[test]
    fn tuple_structs_have_no_fields() {
        let items = extract("struct IdHasher(u64);\nfn after() {}\n");
        assert!(items.fields.is_empty());
        assert_eq!(items.fns.len(), 1);
    }

    #[test]
    fn body_ranges_cover_the_body() {
        let src = "fn a() { inner(); }\nfn b() {}\n";
        let f = SourceFile::new("x.rs", "x", false, src);
        let items = extract_items(0, &f);
        let body = items.fns[0].body.clone().unwrap();
        let idents: Vec<_> = f.tokens[body].iter().filter_map(|t| t.ident()).collect();
        assert_eq!(idents, vec!["inner"]);
        assert_eq!(items.fns[1].body.clone().unwrap().len(), 0);
    }
}
