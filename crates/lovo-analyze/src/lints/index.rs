//! Unchecked-indexing audit for designated always-on modules.
//!
//! The serve tier and the executor hot path run inside worker threads whose
//! panic takes down a whole service worker ([`worker_panics` is counted, but
//! every count is a lost request]). `unwrap`, `expect` and the `panic!`
//! family are denied there by clippy's restriction lints (each module's
//! `#![deny(clippy::unwrap_used, …)]`). This lint denies direct indexing:
//! of slices and `Vec`s, and also, unlike clippy's `indexing_slicing`, of
//! `HashMap`, `BTreeMap` and `VecDeque`. Intentional uses carry
//! `// lint:allow(index, reason)` with a written justification.

use crate::lints::{path_matches, push_unless_allowed};
use crate::model::ParsedFile;
use crate::{Finding, Severity};

/// Lint name for unchecked indexing, as used in allow markers.
pub const INDEX_LINT: &str = "index";

/// Configuration for the index audit: which files deny direct indexing.
pub struct IndexConfig {
    /// Path patterns for modules where direct indexing `x[i]` is denied.
    pub index_paths: Vec<String>,
}

/// Runs the index audit over one file.
pub fn check(file: &ParsedFile, config: &IndexConfig, findings: &mut Vec<Finding>) {
    if !path_matches(&file.path, &config.index_paths) {
        return;
    }
    let tokens = &file.tokens;
    for (i, t) in tokens.iter().enumerate() {
        if file.in_test(i) || !t.is_punct('[') || !is_index_expression(file, i) {
            continue;
        }
        let close = crate::model::matching_close(tokens, i);
        if close > i + 1 && !contains_range(tokens, i + 1, close) {
            push_unless_allowed(
                file,
                INDEX_LINT,
                t.line,
                Severity::Error,
                "unchecked index in an index-denied module; use `.get()`/`.get_mut()` \
                 or add `// lint:allow(index, reason)`"
                    .to_string(),
                findings,
            );
        }
    }
}

/// True when the `[` at `idx` indexes a value (as opposed to opening an
/// array literal, an attribute, or a type). Indexing follows an identifier,
/// a closing bracket, or a string/number literal.
fn is_index_expression(file: &ParsedFile, idx: usize) -> bool {
    let Some(prev) = idx.checked_sub(1).map(|p| &file.tokens[p]) else {
        return false;
    };
    // `vec![…]` and `#[…]` are macro/attribute brackets.
    if prev.is_punct('!') || prev.is_punct('#') {
        return false;
    }
    matches!(
        prev.kind,
        crate::lexer::TokenKind::Ident | crate::lexer::TokenKind::Number
    ) && !is_keyword(&prev.text)
        || prev.is_punct(')')
        || prev.is_punct(']')
}

/// Keywords that may precede `[` without it being an index (e.g. `return [..]`).
fn is_keyword(text: &str) -> bool {
    matches!(
        text,
        "let" | "return" | "break" | "in" | "if" | "else" | "match" | "as" | "mut" | "ref" | "move"
    )
}

/// True when the bracket contents `tokens[open+1..close]` contain a `..`
/// range at depth zero — range slicing (`&v[a..b]`) has its own panic story
/// and is out of scope for this lint.
fn contains_range(tokens: &[crate::lexer::Token], start: usize, close: usize) -> bool {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().take(close).skip(start) {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth = depth.saturating_sub(1);
        } else if depth == 0 && t.is_punct('.') && tokens[i + 1].is_punct('.') {
            return true;
        }
    }
    false
}
