//! A coarse structural model of one Rust source file, built from the token
//! stream: struct definitions with field types, `impl` blocks, functions with
//! body ranges, `#[cfg(test)]` regions, and `lint:allow` markers.
//!
//! This is *not* a parser for Rust — it recognizes exactly the shapes the
//! lints need and skips everything else, erring on the side of "don't crash,
//! don't hallucinate structure".

use crate::lexer::{lex, Comment, Token, TokenKind};
use std::path::PathBuf;

/// One named field of a struct, with its type rendered as space-joined
/// tokens (`Arc < Mutex < bool > >`).
#[derive(Debug, Clone)]
pub struct FieldDef {
    /// Field name.
    pub name: String,
    /// Space-joined type tokens, e.g. `RwLock < HashMap < String , V > >`.
    pub type_text: String,
}

/// A struct definition (unit and tuple structs have no fields recorded).
#[derive(Debug, Clone)]
pub struct StructDef {
    /// Struct name.
    pub name: String,
    /// Named fields in declaration order.
    pub fields: Vec<FieldDef>,
}

/// A function definition (free or associated) with its body token range.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// The `Self` type when the fn sits inside an `impl` block.
    pub impl_type: Option<String>,
    /// Space-joined return-type tokens (empty when the fn returns `()`).
    pub ret_text: String,
    /// Token index range `(open_brace, close_brace)` of the body, inclusive;
    /// `None` for bodyless trait-method declarations.
    pub body: Option<(usize, usize)>,
    /// True when the fn lives inside a `#[cfg(test)]` region or is itself a
    /// `#[test]`/`#[cfg(test)]` item.
    pub is_test: bool,
}

/// An inline `// lint:allow(name, reason)` marker.
#[derive(Debug, Clone)]
pub struct AllowMarker {
    /// The lint name the marker suppresses.
    pub name: String,
    /// The mandatory human-readable justification (may be empty in source;
    /// the analyzer reports empty reasons as errors).
    pub reason: String,
    /// 1-based line the marker's comment ends on. A marker suppresses
    /// findings on this line and the next, so it can sit on the offending
    /// line or immediately above it.
    pub end_line: u32,
}

/// One lexed + structurally indexed source file.
#[derive(Debug)]
pub struct ParsedFile {
    /// Path the file was read from (workspace-relative when loaded via
    /// [`crate::Workspace::load`]).
    pub path: PathBuf,
    /// The token stream.
    pub tokens: Vec<Token>,
    /// Comments with line spans.
    pub comments: Vec<Comment>,
    /// Struct definitions found in the file.
    pub structs: Vec<StructDef>,
    /// Function definitions found in the file.
    pub fns: Vec<FnDef>,
    /// Token-index ranges covered by `#[cfg(test)]` items.
    pub test_ranges: Vec<(usize, usize)>,
    /// `lint:allow` markers found in comments.
    pub allows: Vec<AllowMarker>,
}

impl ParsedFile {
    /// Parses `source` into a structural model.
    pub fn parse(path: PathBuf, source: &str) -> Self {
        let out = lex(source);
        let tokens = out.tokens;
        let test_ranges = find_test_ranges(&tokens);
        let structs = find_structs(&tokens);
        let fns = find_fns(&tokens, &test_ranges);
        let allows = find_allow_markers(&out.comments);
        ParsedFile {
            path,
            tokens,
            comments: out.comments,
            structs,
            fns,
            test_ranges,
            allows,
        }
    }

    /// True when token index `idx` falls inside a `#[cfg(test)]` region.
    pub fn in_test(&self, idx: usize) -> bool {
        self.test_ranges
            .iter()
            .any(|&(start, end)| idx >= start && idx <= end)
    }

    /// Returns the allow marker suppressing `lint` at `line`, if any. A
    /// marker applies to the line its comment ends on and to the following
    /// line (marker-above-the-code style).
    pub fn allow_for(&self, lint: &str, line: u32) -> Option<&AllowMarker> {
        self.allows
            .iter()
            .find(|m| m.name == lint && (m.end_line == line || m.end_line + 1 == line))
    }
}

/// Index of the token closing the bracket opened at `open` (`(`/`)`,
/// `[`/`]`, `{`/`}`). Returns the last token index when unbalanced.
pub fn matching_close(tokens: &[Token], open: usize) -> usize {
    let (open_c, close_c) = match tokens[open].text.as_str() {
        "(" => ('(', ')'),
        "[" => ('[', ']'),
        "{" => ('{', '}'),
        _ => return open,
    };
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(open_c) {
            depth += 1;
        } else if t.is_punct(close_c) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    tokens.len().saturating_sub(1)
}

/// Skips a generics list: given `idx` pointing at `<`, returns the index just
/// past the matching `>`. `->` arrows inside fn-pointer types do not close
/// angles.
fn skip_angles(tokens: &[Token], idx: usize) -> usize {
    let mut depth = 0isize;
    let mut i = idx;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') && !(i > 0 && tokens[i - 1].is_punct('-')) {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    tokens.len()
}

/// Collects the token-index ranges of `#[cfg(test)]` items (`mod` bodies and
/// individual `fn`s) plus `#[test]` fns.
fn find_test_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].is_punct('#') {
            i += 1;
            continue;
        }
        if !tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            i += 1;
            continue;
        }
        let attr_close = matching_close(tokens, i + 1);
        let is_test_attr = {
            let body: Vec<&str> = tokens[i + 2..attr_close]
                .iter()
                .map(|t| t.text.as_str())
                .collect();
            body == ["test"] || (body.len() >= 4 && body[0] == "cfg" && body.contains(&"test"))
        };
        if !is_test_attr {
            i = attr_close + 1;
            continue;
        }
        // Skip any further attributes between this one and the item.
        let mut j = attr_close + 1;
        while j + 1 < tokens.len() && tokens[j].is_punct('#') && tokens[j + 1].is_punct('[') {
            j = matching_close(tokens, j + 1) + 1;
        }
        // Find the item's opening brace: scan forward to the first `{` or `;`.
        let mut k = j;
        while k < tokens.len() && !tokens[k].is_punct('{') && !tokens[k].is_punct(';') {
            k += 1;
        }
        if k < tokens.len() && tokens[k].is_punct('{') {
            ranges.push((i, matching_close(tokens, k)));
            i = k + 1; // ranges may nest; keep scanning inside is unnecessary
            continue;
        }
        i = k + 1;
    }
    ranges
}

/// Harvests struct definitions with named fields.
fn find_structs(tokens: &[Token]) -> Vec<StructDef> {
    let mut structs = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].is_ident("struct") {
            i += 1;
            continue;
        }
        let Some(name_tok) = tokens.get(i + 1).filter(|t| t.kind == TokenKind::Ident) else {
            i += 1;
            continue;
        };
        let name = name_tok.text.clone();
        let mut j = i + 2;
        if j < tokens.len() && tokens[j].is_punct('<') {
            j = skip_angles(tokens, j);
        }
        // Skip a where-clause: everything up to `{`, `(` or `;`.
        while j < tokens.len()
            && !tokens[j].is_punct('{')
            && !tokens[j].is_punct('(')
            && !tokens[j].is_punct(';')
        {
            j += 1;
        }
        let mut fields = Vec::new();
        if j < tokens.len() && tokens[j].is_punct('{') {
            let close = matching_close(tokens, j);
            let mut k = j + 1;
            while k < close {
                // Skip field attributes.
                while k + 1 < close && tokens[k].is_punct('#') && tokens[k + 1].is_punct('[') {
                    k = matching_close(tokens, k + 1) + 1;
                }
                // Skip visibility.
                if k < close && tokens[k].is_ident("pub") {
                    k += 1;
                    if k < close && tokens[k].is_punct('(') {
                        k = matching_close(tokens, k) + 1;
                    }
                }
                if k >= close || tokens[k].kind != TokenKind::Ident {
                    k += 1;
                    continue;
                }
                let field_name = tokens[k].text.clone();
                if !tokens.get(k + 1).is_some_and(|t| t.is_punct(':')) {
                    k += 1;
                    continue;
                }
                // Type runs to the next `,` at bracket depth zero, or to the
                // struct's closing brace.
                let mut depth = 0isize;
                let mut t = k + 2;
                let type_start = t;
                while t < close {
                    let tok = &tokens[t];
                    if tok.is_punct('<') || tok.is_punct('(') || tok.is_punct('[') {
                        depth += 1;
                    } else if (tok.is_punct('>') && !(t > 0 && tokens[t - 1].is_punct('-')))
                        || tok.is_punct(')')
                        || tok.is_punct(']')
                    {
                        depth -= 1;
                    } else if tok.is_punct(',') && depth == 0 {
                        break;
                    }
                    t += 1;
                }
                let type_text = tokens[type_start..t]
                    .iter()
                    .map(|tok| tok.text.as_str())
                    .collect::<Vec<_>>()
                    .join(" ");
                fields.push(FieldDef {
                    name: field_name,
                    type_text,
                });
                k = t + 1;
            }
            i = close + 1;
        } else {
            i = j + 1;
        }
        structs.push(StructDef { name, fields });
    }
    structs
}

/// Finds `impl` block ranges with their `Self` type.
fn find_impl_ranges(tokens: &[Token]) -> Vec<(usize, usize, String)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].is_ident("impl") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if j < tokens.len() && tokens[j].is_punct('<') {
            j = skip_angles(tokens, j);
        }
        // Header runs to the opening brace; the Self type is the first ident
        // after `for` when present, else the first ident of the header.
        let mut header_idents: Vec<(usize, String)> = Vec::new();
        let mut for_pos: Option<usize> = None;
        let mut k = j;
        while k < tokens.len() && !tokens[k].is_punct('{') && !tokens[k].is_punct(';') {
            if tokens[k].kind == TokenKind::Ident {
                if tokens[k].text == "for" {
                    for_pos = Some(k);
                } else if tokens[k].text != "dyn" && tokens[k].text != "where" {
                    header_idents.push((k, tokens[k].text.clone()));
                }
            }
            k += 1;
        }
        if k >= tokens.len() || !tokens[k].is_punct('{') {
            i = k + 1;
            continue;
        }
        let self_type = match for_pos {
            Some(fp) => header_idents
                .iter()
                .find(|&&(pos, _)| pos > fp)
                .map(|(_, name)| name.clone()),
            None => header_idents.first().map(|(_, name)| name.clone()),
        };
        let close = matching_close(tokens, k);
        if let Some(ty) = self_type {
            ranges.push((k, close, ty));
        }
        i = k + 1; // impls don't nest in practice; inner items re-scanned anyway
    }
    ranges
}

/// Harvests function definitions, resolving each to its enclosing `impl`
/// type and test-ness.
fn find_fns(tokens: &[Token], test_ranges: &[(usize, usize)]) -> Vec<FnDef> {
    let impls = find_impl_ranges(tokens);
    let mut fns = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].is_ident("fn") {
            i += 1;
            continue;
        }
        // `fn(` is a fn-pointer type, not a definition.
        let Some(name_tok) = tokens.get(i + 1).filter(|t| t.kind == TokenKind::Ident) else {
            i += 1;
            continue;
        };
        let name = name_tok.text.clone();
        let mut j = i + 2;
        if j < tokens.len() && tokens[j].is_punct('<') {
            j = skip_angles(tokens, j);
        }
        if j >= tokens.len() || !tokens[j].is_punct('(') {
            i += 1;
            continue;
        }
        let params_close = matching_close(tokens, j);
        let mut k = params_close + 1;
        let mut ret_text = String::new();
        if k + 1 < tokens.len() && tokens[k].is_punct('-') && tokens[k + 1].is_punct('>') {
            let ret_start = k + 2;
            let mut depth = 0isize;
            let mut r = ret_start;
            while r < tokens.len() {
                let tok = &tokens[r];
                if tok.is_punct('<') {
                    depth += 1;
                } else if tok.is_punct('>') && !tokens[r - 1].is_punct('-') {
                    depth -= 1;
                } else if depth == 0
                    && (tok.is_punct('{') || tok.is_punct(';') || tok.is_ident("where"))
                {
                    break;
                }
                r += 1;
            }
            ret_text = tokens[ret_start..r]
                .iter()
                .map(|tok| tok.text.as_str())
                .collect::<Vec<_>>()
                .join(" ");
            k = r;
        }
        // Skip a where-clause to the body brace or terminating semicolon.
        while k < tokens.len() && !tokens[k].is_punct('{') && !tokens[k].is_punct(';') {
            k += 1;
        }
        let body = if k < tokens.len() && tokens[k].is_punct('{') {
            Some((k, matching_close(tokens, k)))
        } else {
            None
        };
        let impl_type = impls
            .iter()
            .filter(|&&(start, end, _)| i > start && i < end)
            .map(|(_, _, ty)| ty.clone())
            .next_back();
        let is_test = test_ranges
            .iter()
            .any(|&(start, end)| i >= start && i <= end);
        fns.push(FnDef {
            name,
            impl_type,
            ret_text,
            body,
            is_test,
        });
        i = body.map_or(k + 1, |(open, _)| open + 1);
    }
    fns
}

/// Extracts `lint:allow(name, reason)` markers from comments.
fn find_allow_markers(comments: &[Comment]) -> Vec<AllowMarker> {
    let mut markers = Vec::new();
    for comment in comments {
        let Some(pos) = comment.text.find("lint:allow(") else {
            continue;
        };
        let rest = &comment.text[pos + "lint:allow(".len()..];
        let Some(close) = rest.rfind(')') else {
            continue;
        };
        let inner = &rest[..close];
        let (name, reason) = match inner.split_once(',') {
            Some((name, reason)) => (name.trim().to_string(), reason.trim().to_string()),
            None => (inner.trim().to_string(), String::new()),
        };
        markers.push(AllowMarker {
            name,
            reason,
            end_line: comment.end_line,
        });
    }
    markers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        ParsedFile::parse(PathBuf::from("test.rs"), src)
    }

    #[test]
    fn struct_fields_with_generic_types() {
        let file = parse(
            "pub struct Shared { state: Mutex<QueueState>, pub(crate) cache: Arc<ResultCache>, }",
        );
        assert_eq!(file.structs.len(), 1);
        let s = &file.structs[0];
        assert_eq!(s.name, "Shared");
        assert_eq!(s.fields.len(), 2);
        assert_eq!(s.fields[0].name, "state");
        assert_eq!(s.fields[0].type_text, "Mutex < QueueState >");
        assert_eq!(s.fields[1].name, "cache");
    }

    #[test]
    fn fn_impl_type_and_return() {
        let file = parse(
            "impl Shared { fn lock_state(&self) -> MutexGuard<'_, QueueState> { self.state.lock() } }\nfn free() {}",
        );
        assert_eq!(file.fns.len(), 2);
        assert_eq!(file.fns[0].name, "lock_state");
        assert_eq!(file.fns[0].impl_type.as_deref(), Some("Shared"));
        assert!(file.fns[0].ret_text.contains("MutexGuard"));
        assert_eq!(file.fns[1].impl_type, None);
    }

    #[test]
    fn trait_impl_resolves_self_type_after_for() {
        let file =
            parse("impl Ord for Worst { fn cmp(&self, other: &Self) -> Ordering { todo() } }");
        assert_eq!(file.fns[0].impl_type.as_deref(), Some("Worst"));
    }

    #[test]
    fn cfg_test_mod_marks_fns_as_test() {
        let file = parse(
            "fn real() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn check() { x.unwrap(); }\n}",
        );
        let real = file.fns.iter().find(|f| f.name == "real").unwrap();
        let check = file.fns.iter().find(|f| f.name == "check").unwrap();
        assert!(!real.is_test);
        assert!(check.is_test);
        let unwrap_idx = file
            .tokens
            .iter()
            .position(|t| t.is_ident("unwrap"))
            .unwrap();
        assert!(file.in_test(unwrap_idx));
    }

    #[test]
    fn allow_markers_parse_name_and_reason() {
        let file = parse(
            "// lint:allow(panic, index is in-bounds (modulo len))\nlet x = v[0];\n// lint:allow(index)\nlet y = v[1];",
        );
        assert_eq!(file.allows.len(), 2);
        assert_eq!(file.allows[0].name, "panic");
        assert_eq!(file.allows[0].reason, "index is in-bounds (modulo len)");
        assert!(file.allows[1].reason.is_empty());
        assert!(file.allow_for("panic", 2).is_some());
        assert!(file.allow_for("panic", 4).is_none());
    }

    #[test]
    fn nested_generic_field_with_tuple() {
        let file = parse("struct H { stop: Arc<(Mutex<bool>, Condvar)>, next: u32 }");
        let s = &file.structs[0];
        assert_eq!(s.fields.len(), 2);
        assert_eq!(s.fields[0].name, "stop");
        assert!(s.fields[0].type_text.contains("Mutex < bool >"));
        assert_eq!(s.fields[1].name, "next");
    }
}
