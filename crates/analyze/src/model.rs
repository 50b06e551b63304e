//! The analyzer's view of the workspace: every `.rs` file lexed by the
//! `syn` shim and split into functions.
//!
//! The shim gives us token trees, not a typed AST, so "function" here
//! means a `fn NAME .. { body }` token span.

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
    pub functions: Vec<Function>,
}

/// The whole parsed workspace.
pub struct Workspace {
    /// Sorted by `rel`.
    pub files: Vec<SourceFile>,
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
        let mut sorted: Vec<&(String, String)> = sources.iter().collect();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        for (rel, src) in sorted {
            let parsed = syn::parse_file(src).map_err(|e| format!("{rel}: {e}"))?;
            let mut functions = Vec::new();
            extract_functions(&parsed.tokens, is_test_path(rel), &mut functions);
            files.push(SourceFile { rel: rel.clone(), functions });
        }
        Ok(Workspace { files })
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
        assert!(is_test_path("crates/core/tests/mq_fifo.rs"));
        assert!(is_test_path("crates/bench/benches/micro_components.rs"));
        assert!(!is_test_path("crates/core/src/backend/mod.rs"));
    }
}
