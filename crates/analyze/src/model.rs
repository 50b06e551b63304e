//! The analyzer's view of the workspace: every `.rs` file lexed by the
//! `syn` shim, split into functions, plus the field-name → `LockClass`
//! table recovered from `TrackedMutex::new(LockClass::X, ..)` sites.
//!
//! The shim gives us token trees, not a typed AST, so "function" here
//! means a `fn NAME .. { body }` token span and receiver resolution is by
//! field *name*.  Names are resolved per-file first, then per-crate, then
//! globally-if-unique, so a `state` field in `virtio` and a `state` field
//! in `scif` never alias each other.

use std::collections::BTreeMap;

use syn::{Delimiter, TokenTree};

/// One function's token-level extract.
pub struct Function {
    pub name: String,
    pub line: usize,
    /// Inside `#[cfg(test)]`/`#[test]` items or a tests/benches path.
    pub is_test: bool,
    pub body: Vec<TokenTree>,
}

/// One lexed source file.
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// Owning crate (directory under `crates/`, or `tests`/`examples`).
    pub krate: String,
    pub functions: Vec<Function>,
}

/// The whole parsed workspace.
pub struct Workspace {
    /// Sorted by `rel`.
    pub files: Vec<SourceFile>,
    pub locks: LockFields,
}

/// Idents that can never be a binding or callee name.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "self", "Self", "static", "struct", "super", "trait", "type", "unsafe", "use",
    "where", "while", "yield",
];

pub fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// Owning crate of a workspace-relative path.
pub fn crate_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or("?").to_string(),
        Some(first) if first.ends_with(".rs") => "?".to_string(),
        Some(first) => first.to_string(),
        None => "?".to_string(),
    }
}

/// Whether the *path* marks everything in the file as test code.
pub fn is_test_path(rel: &str) -> bool {
    rel.starts_with("tests/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.starts_with("crates/bench/")
}

impl Workspace {
    /// Parse `(rel, source)` pairs.  Order of the input does not matter;
    /// files are sorted by path so every downstream pass is deterministic.
    pub fn parse(sources: &[(String, String)]) -> Result<Workspace, String> {
        let mut files = Vec::new();
        let mut locks = LockFields::default();
        let mut sorted: Vec<&(String, String)> = sources.iter().collect();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        for (rel, src) in sorted {
            let parsed = syn::parse_file(src).map_err(|e| format!("{rel}: {e}"))?;
            let krate = crate_of(rel);
            let mut functions = Vec::new();
            extract_functions(&parsed.tokens, is_test_path(rel), &mut functions);
            scan_lock_decls(&parsed.tokens, None, rel, &krate, &mut locks);
            files.push(SourceFile { rel: rel.clone(), krate, functions });
        }
        Ok(Workspace { files, locks })
    }
}

/// Walk a token level collecting `fn NAME .. { body }` items.  `mod` items
/// carry `#[cfg(test)]` down; other groups (impl blocks, match bodies) are
/// entered transparently.
fn extract_functions(tokens: &[TokenTree], in_test: bool, out: &mut Vec<Function>) {
    let mut i = 0;
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Ident(id) if id.text == "fn" => {
                let Some(name) = tokens.get(i + 1).and_then(TokenTree::ident) else {
                    i += 1;
                    continue;
                };
                // Body = first brace group before a `;` (trait methods
                // without bodies end at the `;`).
                let mut j = i + 2;
                let mut body: Option<&syn::Group> = None;
                while j < tokens.len() {
                    match &tokens[j] {
                        TokenTree::Punct(p) if p.ch == ';' => break,
                        TokenTree::Group(g) if g.delimiter == Delimiter::Brace => {
                            body = Some(g);
                            break;
                        }
                        _ => j += 1,
                    }
                }
                let is_test = in_test || item_attr_mentions(tokens, i, "test");
                if let Some(g) = body {
                    out.push(Function {
                        name: name.to_string(),
                        line: tokens[i + 1].line(),
                        is_test,
                        body: g.tokens.clone(),
                    });
                    extract_functions(&g.tokens, is_test, out);
                }
                i = j + 1;
            }
            TokenTree::Ident(id) if id.text == "mod" => {
                // `mod name { .. }` — inline module; propagate cfg(test).
                if let (Some(_), Some(TokenTree::Group(g))) =
                    (tokens.get(i + 1).and_then(TokenTree::ident), tokens.get(i + 2))
                {
                    if g.delimiter == Delimiter::Brace {
                        let test = in_test || item_attr_mentions(tokens, i, "test");
                        extract_functions(&g.tokens, test, out);
                        i += 3;
                        continue;
                    }
                }
                i += 1;
            }
            TokenTree::Group(g) => {
                extract_functions(&g.tokens, in_test, out);
                i += 1;
            }
            _ => i += 1,
        }
    }
}

/// Whether the item starting at `at` has a preceding `#[..]` attribute
/// mentioning ident `what` (scanning back over visibility/qualifiers).
fn item_attr_mentions(tokens: &[TokenTree], at: usize, what: &str) -> bool {
    let mut j = at;
    while j > 0 {
        j -= 1;
        match &tokens[j] {
            TokenTree::Ident(id)
                if matches!(id.text.as_str(), "pub" | "const" | "unsafe" | "async" | "crate") => {}
            TokenTree::Group(g) if g.delimiter == Delimiter::Parenthesis => {}
            TokenTree::Group(g)
                if g.delimiter == Delimiter::Bracket
                    && j > 0
                    && tokens[j - 1].punct() == Some('#') =>
            {
                if group_mentions(&g.tokens, what) {
                    return true;
                }
                j -= 1;
            }
            _ => return false,
        }
    }
    false
}

fn group_mentions(tokens: &[TokenTree], what: &str) -> bool {
    tokens.iter().any(|t| match t {
        TokenTree::Ident(id) => id.text == what,
        TokenTree::Group(g) => group_mentions(&g.tokens, what),
        _ => false,
    })
}

/// Field-name → lock-class table.  A value of `None` marks a name bound to
/// two different classes at that scope (ambiguous: never resolved there).
#[derive(Default)]
pub struct LockFields {
    by_file: BTreeMap<(String, String), Option<String>>,
    by_crate: BTreeMap<(String, String), Option<String>>,
    global: BTreeMap<String, Option<String>>,
    pub decls: usize,
}

impl LockFields {
    fn add(&mut self, rel: &str, krate: &str, field: &str, class: &str) {
        self.decls += 1;
        for (map, key) in [
            (&mut self.by_file, (rel.to_string(), field.to_string())),
            (&mut self.by_crate, (krate.to_string(), field.to_string())),
        ] {
            map.entry(key)
                .and_modify(|v| {
                    if v.as_deref() != Some(class) {
                        *v = None;
                    }
                })
                .or_insert_with(|| Some(class.to_string()));
        }
        self.global
            .entry(field.to_string())
            .and_modify(|v| {
                if v.as_deref() != Some(class) {
                    *v = None;
                }
            })
            .or_insert_with(|| Some(class.to_string()));
    }

    /// Resolve a receiver field name at a use site: file scope first, then
    /// crate, then globally-unique.
    pub fn resolve(&self, rel: &str, krate: &str, field: &str) -> Option<&str> {
        if let Some(v) = self.by_file.get(&(rel.to_string(), field.to_string())) {
            return v.as_deref();
        }
        if let Some(v) = self.by_crate.get(&(krate.to_string(), field.to_string())) {
            return v.as_deref();
        }
        self.global.get(field).and_then(|v| v.as_deref())
    }
}

const TRACKED_CTORS: &[&str] = &["TrackedMutex", "TrackedRwLock", "TrackedRole"];

/// Find `TrackedMutex::new(LockClass::X, ..)` (and the RwLock form) and
/// map the nearest enclosing binding name — `field: ..` struct init or
/// `let name = ..` — to class `X`.  `binding` carries the nearest binding
/// seen at an ancestor level, so `field: Arc::new(TrackedMutex::new(..))`
/// resolves to `field`.
fn scan_lock_decls(
    tokens: &[TokenTree],
    binding: Option<&str>,
    rel: &str,
    krate: &str,
    out: &mut LockFields,
) {
    let mut current: Option<String> = binding.map(str::to_string);
    let mut i = 0;
    while i < tokens.len() {
        if let Some(name) = tokens[i].ident() {
            if !is_keyword(name) {
                // `name :` (single colon) or `name =` (plain assignment).
                let next = tokens.get(i + 1).and_then(TokenTree::punct);
                let after = tokens.get(i + 2).and_then(TokenTree::punct);
                let binds = (next == Some(':') && after != Some(':'))
                    || (next == Some('=') && after != Some('=') && after != Some('>'));
                if binds {
                    current = Some(name.to_string());
                }
            }
            if TRACKED_CTORS.contains(&name)
                && tokens.get(i + 1).and_then(TokenTree::punct) == Some(':')
                && tokens.get(i + 2).and_then(TokenTree::punct) == Some(':')
                && tokens.get(i + 3).and_then(TokenTree::ident) == Some("new")
            {
                if let Some(TokenTree::Group(args)) = tokens.get(i + 4) {
                    if args.delimiter == Delimiter::Parenthesis {
                        if let (Some(class), Some(field)) =
                            (lock_class_in(&args.tokens), current.as_deref())
                        {
                            out.add(rel, krate, field, class);
                        }
                    }
                }
            }
        }
        if let TokenTree::Group(g) = &tokens[i] {
            scan_lock_decls(&g.tokens, current.as_deref(), rel, krate, out);
        }
        i += 1;
    }
}

/// The `X` of the first top-level `LockClass :: X` in an argument list.
fn lock_class_in(tokens: &[TokenTree]) -> Option<&str> {
    for i in 0..tokens.len() {
        if tokens[i].ident() == Some("LockClass")
            && tokens.get(i + 1).and_then(TokenTree::punct) == Some(':')
            && tokens.get(i + 2).and_then(TokenTree::punct) == Some(':')
        {
            return tokens.get(i + 3).and_then(TokenTree::ident);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(rel: &str, src: &str) -> Workspace {
        Workspace::parse(&[(rel.to_string(), src.to_string())]).unwrap()
    }

    #[test]
    fn functions_and_test_scopes_are_extracted() {
        let src = "impl Foo {\n  pub fn run(&self) { inner() }\n}\nfn inner() {}\n#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() {}\n}\n";
        let w = ws("crates/demo/src/lib.rs", src);
        let names: Vec<(&str, bool)> =
            w.files[0].functions.iter().map(|f| (f.name.as_str(), f.is_test)).collect();
        assert_eq!(names, [("run", false), ("inner", false), ("t", true)]);
    }

    #[test]
    fn tests_dir_paths_are_all_test_code() {
        let w = ws("crates/demo/tests/it.rs", "fn helper() {}");
        assert!(w.files[0].functions[0].is_test);
    }

    #[test]
    fn lock_decls_resolve_per_file_then_crate() {
        let a = (
            "crates/a/src/lib.rs".to_string(),
            "struct S;\nimpl S { fn new() -> Self { Self { state: TrackedMutex::new(LockClass::BoardState, 0) } } }".to_string(),
        );
        let b = (
            "crates/b/src/lib.rs".to_string(),
            "fn mk() { let state = Arc::new(TrackedMutex::new(LockClass::EndpointState, 0)); }"
                .to_string(),
        );
        let w = Workspace::parse(&[a, b]).unwrap();
        assert_eq!(w.locks.resolve("crates/a/src/lib.rs", "a", "state"), Some("BoardState"));
        assert_eq!(w.locks.resolve("crates/b/src/lib.rs", "b", "state"), Some("EndpointState"));
        // Cross-crate, the name is ambiguous globally.
        assert_eq!(w.locks.resolve("crates/c/src/lib.rs", "c", "state"), None);
        assert_eq!(w.locks.decls, 2);
    }

    #[test]
    fn crate_attribution() {
        assert_eq!(crate_of("crates/virtio/src/queue.rs"), "virtio");
        assert_eq!(crate_of("tests/chaos.rs"), "tests");
        assert_eq!(crate_of("examples/mmap_device_memory.rs"), "examples");
        assert!(is_test_path("crates/core/tests/mq_fifo.rs"));
        assert!(is_test_path("crates/bench/benches/micro_components.rs"));
        assert!(!is_test_path("crates/core/src/backend/mod.rs"));
    }
}
