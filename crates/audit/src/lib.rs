//! # pbds-audit
//!
//! A workspace invariant linter for PBDS. PRs 4–8 built the system's
//! correctness story on *conventions* — all file I/O flows through
//! `pbds-persist::io`'s injectable traits, diagnostics land in
//! `RobustnessEvents`, health transitions go through `settle_health`, and
//! lock guards never `.unwrap()` the poison flag. This crate turns those
//! conventions into machine-checked lints:
//!
//! | Lint | Rule |
//! |------|------|
//! | `L1` | no `std::fs` / `File::open` / `OpenOptions` outside `pbds-persist::io` |
//! | `L2` | no `println!` / `eprintln!` in library crates |
//! | `L3` | no `.unwrap()` / `.expect()` on lock-guard results |
//! | `L4` | no direct mutating ops on the health `AtomicU8` outside `settle_health` / `degrade` |
//! | `L6` | no `Instant::now` / `SystemTime::now` outside `pbds-telemetry` |
//!
//! The scanner is a hand-rolled **token-level lexer** (the build
//! environment is offline, so no `syn`): comments, strings (incl. raw and
//! byte strings), char literals and lifetimes are recognized and stripped,
//! and lints match on the remaining identifier/punctuation stream, so a
//! `println!` inside a doc comment or a `"std::fs"` inside a string never
//! fires. `#[cfg(test)]`-style regions (any attribute containing the
//! `test` identifier without `not`) are masked: test code may use
//! `std::fs` and `unwrap` freely.
//!
//! Suppression is two-level and both levels are committed to the repo:
//! a root `audit.allow` file with `LINT path` entries for whole files
//! (e.g. this crate's own `std::fs` use), and in-source
//! `audit:allow(L1)` comment markers on (or immediately above) a line
//! for point exemptions.
//!
//! Run it as `cargo run -p pbds-audit --release`; the binary exits
//! non-zero with `file:line` diagnostics on any unsuppressed violation.

#![warn(missing_docs)]

use std::fmt;
use std::path::{Path, PathBuf};

/// Identifier of one workspace lint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lint {
    /// `std::fs` / `File::open` / `OpenOptions` outside `pbds-persist::io`.
    L1,
    /// `println!` / `eprintln!` in a library crate.
    L2,
    /// `.unwrap()` / `.expect()` on a lock-guard result.
    L3,
    /// Direct mutating op on the health `AtomicU8` outside
    /// `settle_health` / `degrade`.
    L4,
    /// `Instant::now` / `SystemTime::now` outside `pbds-telemetry` —
    /// all clock reads must go through the `pbds_telemetry::clock` seam.
    L6,
}

impl Lint {
    /// The short id used in diagnostics, `audit.allow` and
    /// `audit:allow(..)` markers.
    pub fn id(self) -> &'static str {
        match self {
            Lint::L1 => "L1",
            Lint::L2 => "L2",
            Lint::L3 => "L3",
            Lint::L4 => "L4",
            Lint::L6 => "L6",
        }
    }

    fn from_id(s: &str) -> Option<Lint> {
        match s {
            "L1" => Some(Lint::L1),
            "L2" => Some(Lint::L2),
            "L3" => Some(Lint::L3),
            "L4" => Some(Lint::L4),
            "L6" => Some(Lint::L6),
            _ => None,
        }
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One lint violation, pointing at a `file:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which lint fired.
    pub lint: Lint,
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based source line.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}:{}: {}",
            self.lint, self.path, self.line, self.message
        )
    }
}

/// Result of auditing the whole workspace.
#[derive(Debug)]
pub struct Report {
    /// Unsuppressed violations (empty means the audit passes).
    pub violations: Vec<Violation>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Violations suppressed by `audit.allow` entries.
    pub suppressed: usize,
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Punct(char),
}

#[derive(Debug, Clone)]
struct Token {
    line: usize,
    tok: Tok,
}

impl Token {
    fn is_punct(&self, c: char) -> bool {
        self.tok == Tok::Punct(c)
    }

    fn is_ident(&self, s: &str) -> bool {
        matches!(&self.tok, Tok::Ident(i) if i == s)
    }

    fn ident(&self) -> Option<&str> {
        match &self.tok {
            Tok::Ident(i) => Some(i.as_str()),
            Tok::Punct(_) => None,
        }
    }
}

/// An `audit:allow(..)` marker found in a comment. A marker trailing code
/// on the same line suppresses that line only; a marker on its own line
/// also suppresses the line below.
#[derive(Debug)]
struct Marker {
    line: usize,
    lints: Vec<Lint>,
    trailing: bool,
}

struct Lexed {
    tokens: Vec<Token>,
    markers: Vec<Marker>,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Extract `audit:allow(L1, L3)`-style markers from comment text.
fn scan_comment_markers(text: &str, line: usize, trailing: bool, markers: &mut Vec<Marker>) {
    let mut rest = text;
    while let Some(pos) = rest.find("audit:allow(") {
        rest = &rest[pos + "audit:allow(".len()..];
        let Some(end) = rest.find(')') else { return };
        let lints: Vec<Lint> = rest[..end]
            .split(',')
            .filter_map(|s| Lint::from_id(s.trim()))
            .collect();
        if !lints.is_empty() {
            markers.push(Marker {
                line,
                lints,
                trailing,
            });
        }
        rest = &rest[end..];
    }
}

/// Tokenize Rust source: comments, string/char literals and lifetimes are
/// recognized and dropped; identifiers and punctuation survive with line
/// numbers. Good enough for pattern lints; not a full parser.
fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let mut tokens = Vec::new();
    let mut markers = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;
    let n = chars.len();

    let count_lines = |s: &[char]| s.iter().filter(|&&c| c == '\n').count();

    while i < n {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < n && chars[i + 1] == '/' => {
                let start = i;
                while i < n && chars[i] != '\n' {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                let trailing = tokens.last().is_some_and(|t: &Token| t.line == line);
                scan_comment_markers(&text, line, trailing, &mut markers);
            }
            '/' if i + 1 < n && chars[i + 1] == '*' => {
                let start = i;
                let start_line = line;
                let mut depth = 1usize;
                i += 2;
                while i < n && depth > 0 {
                    if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        if chars[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                let text: String = chars[start..i].iter().collect();
                let trailing = tokens.last().is_some_and(|t: &Token| t.line == start_line);
                scan_comment_markers(&text, start_line, trailing, &mut markers);
            }
            '"' => {
                // Plain string literal with escapes.
                i += 1;
                while i < n {
                    match chars[i] {
                        '\\' => i += 2,
                        '"' => {
                            i += 1;
                            break;
                        }
                        '\n' => {
                            line += 1;
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
            }
            '\'' => {
                // Lifetime or char literal.
                if i + 1 < n && chars[i + 1] == '\\' {
                    // Escaped char literal: '\n', '\'', '\u{..}'.
                    i += 2;
                    while i < n && chars[i] != '\'' {
                        i += 1;
                    }
                    i += 1;
                } else if i + 2 < n && chars[i + 2] == '\'' && chars[i + 1] != '\'' {
                    // 'x' — plain char literal.
                    i += 3;
                } else if i + 1 < n && is_ident_start(chars[i + 1]) {
                    // 'a — lifetime; consume the identifier, emit nothing.
                    i += 1;
                    while i < n && is_ident_continue(chars[i]) {
                        i += 1;
                    }
                } else {
                    // Multi-char unicode literal like '∆' or stray quote.
                    i += 1;
                    while i < n && chars[i] != '\'' && chars[i] != '\n' {
                        i += 1;
                    }
                    if i < n && chars[i] == '\'' {
                        i += 1;
                    }
                }
            }
            c if c.is_ascii_digit() => {
                // Number literal (incl. 1_000u64, 0xff, 1.5e3); dropped.
                i += 1;
                while i < n {
                    let d = chars[i];
                    if is_ident_continue(d)
                        || (d == '.' && i + 1 < n && chars[i + 1].is_ascii_digit())
                    {
                        i += 1;
                    } else {
                        break;
                    }
                }
            }
            c if is_ident_start(c) => {
                // Check raw-string / byte-string / raw-identifier prefixes.
                if (c == 'r' || c == 'b') && raw_string_at(&chars, i) {
                    let consumed = consume_raw_or_byte_string(&chars, i);
                    line += count_lines(&chars[i..i + consumed]);
                    i += consumed;
                    continue;
                }
                if c == 'r'
                    && i + 1 < n
                    && chars[i + 1] == '#'
                    && i + 2 < n
                    && is_ident_start(chars[i + 2])
                {
                    // r#ident raw identifier: emit without the prefix.
                    i += 2;
                    let start = i;
                    while i < n && is_ident_continue(chars[i]) {
                        i += 1;
                    }
                    tokens.push(Token {
                        line,
                        tok: Tok::Ident(chars[start..i].iter().collect()),
                    });
                    continue;
                }
                let start = i;
                while i < n && is_ident_continue(chars[i]) {
                    i += 1;
                }
                tokens.push(Token {
                    line,
                    tok: Tok::Ident(chars[start..i].iter().collect()),
                });
            }
            other => {
                tokens.push(Token {
                    line,
                    tok: Tok::Punct(other),
                });
                i += 1;
            }
        }
    }
    Lexed { tokens, markers }
}

/// Does a raw/byte string literal start at `i` (which holds 'r' or 'b')?
fn raw_string_at(chars: &[char], i: usize) -> bool {
    let n = chars.len();
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
        if j < n && chars[j] == 'r' {
            j += 1;
        }
    } else {
        // 'r'
        j += 1;
    }
    while j < n && chars[j] == '#' {
        j += 1;
    }
    j < n && chars[j] == '"'
}

/// Consume a raw/byte string starting at `i`; returns chars consumed.
fn consume_raw_or_byte_string(chars: &[char], i: usize) -> usize {
    let n = chars.len();
    let mut j = i;
    let mut raw = false;
    if chars[j] == 'b' {
        j += 1;
    }
    if j < n && chars[j] == 'r' {
        raw = true;
        j += 1;
    }
    let mut hashes = 0usize;
    while j < n && chars[j] == '#' {
        hashes += 1;
        j += 1;
    }
    debug_assert!(j < n && chars[j] == '"');
    j += 1; // opening quote
    if raw {
        // Terminated by '"' followed by `hashes` '#'s; no escapes.
        while j < n {
            if chars[j] == '"' && chars[j + 1..].iter().take_while(|&&c| c == '#').count() >= hashes
            {
                j += 1 + hashes;
                break;
            }
            j += 1;
        }
    } else {
        // b"..." with escapes.
        while j < n {
            match chars[j] {
                '\\' => j += 2,
                '"' => {
                    j += 1;
                    break;
                }
                _ => j += 1,
            }
        }
    }
    j - i
}

// ---------------------------------------------------------------------------
// Test-region masking
// ---------------------------------------------------------------------------

/// Mark token ranges covered by `#[cfg(test)]`-style attributes (any outer
/// attribute whose tokens include the identifier `test` but not `not`) plus
/// the item that follows, through its balanced `{..}` body or trailing `;`.
fn mask_test_regions(tokens: &[Token]) -> Vec<bool> {
    let mut masked = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && i + 1 < tokens.len() && tokens[i + 1].is_punct('[') {
            let attr_start = i;
            let Some(attr_end) = matching(tokens, i + 1, '[', ']') else {
                break;
            };
            let has_test = tokens[attr_start..=attr_end]
                .iter()
                .any(|t| t.is_ident("test"));
            let has_not = tokens[attr_start..=attr_end]
                .iter()
                .any(|t| t.is_ident("not"));
            if has_test && !has_not {
                // Mask the attribute, any further attributes, and the item.
                let mut j = attr_end + 1;
                while j + 1 < tokens.len() && tokens[j].is_punct('#') && tokens[j + 1].is_punct('[')
                {
                    match matching(tokens, j + 1, '[', ']') {
                        Some(e) => j = e + 1,
                        None => break,
                    }
                }
                // Find the item's body `{` or terminating `;`.
                let mut end = tokens.len().saturating_sub(1);
                let mut k = j;
                while k < tokens.len() {
                    if tokens[k].is_punct(';') {
                        end = k;
                        break;
                    }
                    if tokens[k].is_punct('{') {
                        end = matching(tokens, k, '{', '}').unwrap_or(tokens.len() - 1);
                        break;
                    }
                    k += 1;
                }
                for m in &mut masked[attr_start..=end.min(tokens.len() - 1)] {
                    *m = true;
                }
                i = end + 1;
                continue;
            }
            i = attr_end + 1;
            continue;
        }
        i += 1;
    }
    masked
}

/// Index of the token closing the bracket opened at `open_idx`.
fn matching(tokens: &[Token], open_idx: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0usize;
    for (idx, t) in tokens.iter().enumerate().skip(open_idx) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(idx);
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Lint passes
// ---------------------------------------------------------------------------

/// Methods that mutate an atomic; loads are fine anywhere.
const ATOMIC_MUTATORS: &[&str] = &[
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_nand",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
];

/// Guard-producing methods for L3.
const GUARD_METHODS: &[&str] = &["lock", "read", "write"];

struct FileCtx<'a> {
    rel: &'a str,
    tokens: &'a [Token],
    masked: &'a [bool],
}

impl FileCtx<'_> {
    fn live(&self, i: usize) -> Option<&Token> {
        if i < self.tokens.len() && !self.masked[i] {
            Some(&self.tokens[i])
        } else {
            None
        }
    }
}

fn lint_l1(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    for i in 0..ctx.tokens.len() {
        let Some(t) = ctx.live(i) else { continue };
        // std :: fs
        if t.is_ident("std")
            && ctx.live(i + 1).is_some_and(|t| t.is_punct(':'))
            && ctx.live(i + 2).is_some_and(|t| t.is_punct(':'))
            && ctx.live(i + 3).is_some_and(|t| t.is_ident("fs"))
        {
            out.push(Violation {
                lint: Lint::L1,
                path: ctx.rel.to_string(),
                line: t.line,
                message: "`std::fs` outside pbds-persist::io — route file I/O through the \
                          injectable `Io`/`DurableFile` traits"
                    .to_string(),
            });
        }
        // File :: open
        if t.is_ident("File")
            && ctx.live(i + 1).is_some_and(|t| t.is_punct(':'))
            && ctx.live(i + 2).is_some_and(|t| t.is_punct(':'))
            && ctx.live(i + 3).is_some_and(|t| t.is_ident("open"))
        {
            out.push(Violation {
                lint: Lint::L1,
                path: ctx.rel.to_string(),
                line: t.line,
                message: "`File::open` outside pbds-persist::io — use the `Io` trait".to_string(),
            });
        }
        if t.is_ident("OpenOptions") {
            out.push(Violation {
                lint: Lint::L1,
                path: ctx.rel.to_string(),
                line: t.line,
                message: "`OpenOptions` outside pbds-persist::io — use the `Io` trait".to_string(),
            });
        }
    }
}

fn lint_l2(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    for i in 0..ctx.tokens.len() {
        let Some(t) = ctx.live(i) else { continue };
        let Some(name) = t.ident() else { continue };
        if (name == "println" || name == "eprintln")
            && ctx.live(i + 1).is_some_and(|t| t.is_punct('!'))
        {
            out.push(Violation {
                lint: Lint::L2,
                path: ctx.rel.to_string(),
                line: t.line,
                message: format!(
                    "`{name}!` in a library crate — route diagnostics through RobustnessEvents/stats"
                ),
            });
        }
    }
}

fn lint_l3(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    for i in 1..ctx.tokens.len() {
        let Some(t) = ctx.live(i) else { continue };
        let Some(m) = t.ident() else { continue };
        if !GUARD_METHODS.contains(&m) {
            continue;
        }
        // .lock().unwrap() / .read().expect(..) / .write().unwrap()
        let preceded_by_dot = ctx.live(i - 1).is_some_and(|t| t.is_punct('.'));
        if !preceded_by_dot {
            continue;
        }
        if ctx.live(i + 1).is_some_and(|t| t.is_punct('('))
            && ctx.live(i + 2).is_some_and(|t| t.is_punct(')'))
            && ctx.live(i + 3).is_some_and(|t| t.is_punct('.'))
        {
            if let Some(next) = ctx.live(i + 4).and_then(Token::ident) {
                if next == "unwrap" || next == "expect" {
                    out.push(Violation {
                        lint: Lint::L3,
                        path: ctx.rel.to_string(),
                        line: t.line,
                        message: format!(
                            "`.{m}().{next}(..)` on a lock guard — honoring the poison flag \
                             wedges the subsystem; use the pbds-sync tracked wrappers \
                             (poison-recovering) instead"
                        ),
                    });
                }
            }
        }
    }
}

/// Innermost enclosing `fn` name per token, for L4.
fn enclosing_fns(ctx: &FileCtx<'_>) -> Vec<Option<String>> {
    let mut out: Vec<Option<String>> = vec![None; ctx.tokens.len()];
    let mut depth = 0usize;
    let mut bracket_depth = 0isize; // () and [] nesting, to ignore `;` in `[u8; 3]`
    let mut fn_stack: Vec<(String, usize)> = Vec::new();
    let mut pending: Option<String> = None;
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = fn_stack.last().map(|(n, _)| n.clone());
        let Some(t) = ctx.live(i) else { continue };
        match &t.tok {
            Tok::Ident(kw) if kw == "fn" => {
                if let Some(name) = ctx.live(i + 1).and_then(Token::ident) {
                    pending = Some(name.to_string());
                }
            }
            Tok::Punct('(') | Tok::Punct('[') => bracket_depth += 1,
            Tok::Punct(')') | Tok::Punct(']') => bracket_depth -= 1,
            Tok::Punct('{') => {
                depth += 1;
                if let Some(name) = pending.take() {
                    fn_stack.push((name, depth));
                }
            }
            Tok::Punct('}') => {
                if fn_stack.last().is_some_and(|&(_, d)| d == depth) {
                    fn_stack.pop();
                }
                depth = depth.saturating_sub(1);
            }
            Tok::Punct(';') if bracket_depth == 0 => {
                // Trait method declaration without a body.
                pending = None;
            }
            _ => {}
        }
    }
    out
}

fn lint_l4(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    let fns = enclosing_fns(ctx);
    for i in 0..ctx.tokens.len() {
        let Some(t) = ctx.live(i) else { continue };
        if !t.is_ident("health") {
            continue;
        }
        if !ctx.live(i + 1).is_some_and(|t| t.is_punct('.')) {
            continue;
        }
        let Some(op) = ctx.live(i + 2).and_then(Token::ident) else {
            continue;
        };
        if !ATOMIC_MUTATORS.contains(&op) {
            continue;
        }
        let in_allowed = fns
            .get(i + 2)
            .and_then(|f| f.as_deref())
            .is_some_and(|f| f == "settle_health" || f == "degrade");
        if !in_allowed {
            out.push(Violation {
                lint: Lint::L4,
                path: ctx.rel.to_string(),
                line: t.line,
                message: format!(
                    "direct `health.{op}(..)` outside settle_health/degrade — health \
                     transitions must go through the monotone helpers"
                ),
            });
        }
    }
}

fn lint_l6(ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
    for i in 0..ctx.tokens.len() {
        let Some(t) = ctx.live(i) else { continue };
        let Some(ty) = t.ident() else { continue };
        if ty != "Instant" && ty != "SystemTime" {
            continue;
        }
        // Instant :: now / SystemTime :: now
        if ctx.live(i + 1).is_some_and(|t| t.is_punct(':'))
            && ctx.live(i + 2).is_some_and(|t| t.is_punct(':'))
            && ctx.live(i + 3).is_some_and(|t| t.is_ident("now"))
        {
            out.push(Violation {
                lint: Lint::L6,
                path: ctx.rel.to_string(),
                line: t.line,
                message: format!(
                    "`{ty}::now()` outside pbds-telemetry — read the clock through \
                     `pbds_telemetry::clock` (`clock::now`, `clock::system_now`, \
                     `Stopwatch`) so time flows through one seam"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Per-file scan
// ---------------------------------------------------------------------------

/// Is this path a binary target (allowed to print and touch files)?
fn is_binary_target(rel: &str) -> bool {
    rel.ends_with("/src/main.rs") || rel.contains("/src/bin/")
}

/// Scan one file's source. `rel_path` (forward slashes, workspace-relative)
/// selects which lints apply:
///
/// * `crates/persist/src/io.rs` is exempt from L1 (it is the I/O seam);
/// * binary targets (`src/main.rs`, `src/bin/**`) are exempt from L1/L2/L6;
/// * L4 runs only in `crates/core` (the health atom lives there);
/// * `crates/telemetry/**` is exempt from L6 (it is the clock seam).
///
/// In-source `audit:allow(Lx)` markers on the same or preceding line
/// suppress matching violations; the `audit.allow` file is applied by
/// [`audit_workspace`], not here.
pub fn scan_source(rel_path: &str, source: &str) -> Vec<Violation> {
    let lexed = lex(source);
    let masked = mask_test_regions(&lexed.tokens);
    let ctx = FileCtx {
        rel: rel_path,
        tokens: &lexed.tokens,
        masked: &masked,
    };
    let mut out = Vec::new();
    let is_bin = is_binary_target(rel_path);
    if rel_path != "crates/persist/src/io.rs" && !is_bin {
        lint_l1(&ctx, &mut out);
    }
    if !is_bin {
        lint_l2(&ctx, &mut out);
    }
    lint_l3(&ctx, &mut out);
    if rel_path.starts_with("crates/core/") {
        lint_l4(&ctx, &mut out);
    }
    if !rel_path.starts_with("crates/telemetry/") && !is_bin {
        lint_l6(&ctx, &mut out);
    }
    out.retain(|v| {
        !lexed.markers.iter().any(|m| {
            m.lints.contains(&v.lint) && (m.line == v.line || (!m.trailing && m.line + 1 == v.line))
        })
    });
    out.sort_by(|a, b| (a.line, a.lint.id()).cmp(&(b.line, b.lint.id())));
    out
}

// ---------------------------------------------------------------------------
// Workspace walk + allowlist
// ---------------------------------------------------------------------------

/// One `LINT path` entry from `audit.allow`.
#[derive(Debug, PartialEq, Eq)]
struct AllowEntry {
    lint: Lint,
    path: String,
}

fn parse_allowlist(text: &str) -> Vec<AllowEntry> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (lint, path) = l.split_once(char::is_whitespace)?;
            Some(AllowEntry {
                lint: Lint::from_id(lint)?,
                path: path.trim().to_string(),
            })
        })
        .collect()
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Audit every library/binary source tree in the workspace rooted at
/// `root`: `crates/*/src/**.rs` (excluding the vendored `crates/shims/*`)
/// plus the meta crate's `src/`. Applies the root `audit.allow` file.
pub fn audit_workspace(root: &Path) -> std::io::Result<Report> {
    let allow = match std::fs::read_to_string(root.join("audit.allow")) {
        Ok(text) => parse_allowlist(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };

    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    for entry in std::fs::read_dir(&crates_dir)? {
        let entry = entry?;
        let path = entry.path();
        if !path.is_dir() || entry.file_name() == "shims" {
            continue;
        }
        let src = path.join("src");
        if src.is_dir() {
            collect_rs_files(&src, &mut files)?;
        }
    }
    let meta_src = root.join("src");
    if meta_src.is_dir() {
        collect_rs_files(&meta_src, &mut files)?;
    }
    files.sort();

    let mut violations = Vec::new();
    let mut suppressed = 0usize;
    let files_scanned = files.len();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let source = std::fs::read_to_string(&file)?;
        for v in scan_source(&rel, &source) {
            if allow.iter().any(|a| a.lint == v.lint && a.path == v.path) {
                suppressed += 1;
            } else {
                violations.push(v);
            }
        }
    }
    Ok(Report {
        violations,
        files_scanned,
        suppressed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const L1_FIXTURE: &str = include_str!("../fixtures/l1_fs.rs");
    const L2_FIXTURE: &str = include_str!("../fixtures/l2_println.rs");
    const L3_FIXTURE: &str = include_str!("../fixtures/l3_lock_unwrap.rs");
    const L4_FIXTURE: &str = include_str!("../fixtures/l4_health_store.rs");
    const L6_FIXTURE: &str = include_str!("../fixtures/l6_instant_now.rs");
    const CLEAN_FIXTURE: &str = include_str!("../fixtures/clean.rs");

    fn lints(vs: &[Violation]) -> Vec<Lint> {
        vs.iter().map(|v| v.lint).collect()
    }

    #[test]
    fn l1_fires_on_fs_use() {
        let vs = scan_source("crates/example/src/bad.rs", L1_FIXTURE);
        assert!(lints(&vs).contains(&Lint::L1), "violations: {vs:?}");
        // std::fs, File::open and OpenOptions each fire.
        assert!(vs.iter().filter(|v| v.lint == Lint::L1).count() >= 3);
        assert!(vs.iter().all(|v| v.line > 0));
    }

    #[test]
    fn l1_exempt_in_io_seam_and_bins() {
        assert!(scan_source("crates/persist/src/io.rs", L1_FIXTURE)
            .iter()
            .all(|v| v.lint != Lint::L1));
        assert!(scan_source("crates/example/src/main.rs", L1_FIXTURE)
            .iter()
            .all(|v| v.lint != Lint::L1));
    }

    #[test]
    fn l2_fires_on_println() {
        let vs = scan_source("crates/example/src/bad.rs", L2_FIXTURE);
        assert_eq!(
            vs.iter().filter(|v| v.lint == Lint::L2).count(),
            2,
            "println! and eprintln! each fire once: {vs:?}"
        );
        // ...but not in a binary target.
        assert!(scan_source("crates/example/src/bin/tool.rs", L2_FIXTURE).is_empty());
    }

    #[test]
    fn l3_fires_on_guard_unwrap() {
        let vs = scan_source("crates/example/src/bad.rs", L3_FIXTURE);
        let l3: Vec<_> = vs.iter().filter(|v| v.lint == Lint::L3).collect();
        assert_eq!(l3.len(), 3, "lock/read/write each fire: {vs:?}");
    }

    #[test]
    fn l4_fires_outside_settle_health() {
        let vs = scan_source("crates/core/src/bad.rs", L4_FIXTURE);
        let l4: Vec<_> = vs.iter().filter(|v| v.lint == Lint::L4).collect();
        assert_eq!(l4.len(), 2, "store+fetch_max outside helpers fire: {vs:?}");
        // The same source scanned as a non-core crate is exempt.
        assert!(scan_source("crates/example/src/bad.rs", L4_FIXTURE)
            .iter()
            .all(|v| v.lint != Lint::L4));
    }

    #[test]
    fn l6_fires_on_direct_clock_reads() {
        let vs = scan_source("crates/example/src/bad.rs", L6_FIXTURE);
        let l6: Vec<_> = vs.iter().filter(|v| v.lint == Lint::L6).collect();
        assert_eq!(
            l6.len(),
            2,
            "Instant::now and SystemTime::now each fire once: {vs:?}"
        );
        // The clock seam itself and binary targets are exempt.
        assert!(scan_source("crates/telemetry/src/clock.rs", L6_FIXTURE)
            .iter()
            .all(|v| v.lint != Lint::L6));
        assert!(scan_source("crates/example/src/main.rs", L6_FIXTURE)
            .iter()
            .all(|v| v.lint != Lint::L6));
    }

    #[test]
    fn clean_fixture_is_clean() {
        // Exercises test-masking, markers, strings/comments containing
        // lint-looking text, and poison-recovering lock use.
        let vs = scan_source("crates/core/src/clean.rs", CLEAN_FIXTURE);
        assert!(vs.is_empty(), "violations: {vs:?}");
    }

    #[test]
    fn marker_suppresses_same_and_next_line() {
        let src = "fn f() {\n    // audit:allow(L2)\n    println!(\"x\");\n    println!(\"y\"); // audit:allow(L2)\n    println!(\"z\");\n}\n";
        let vs = scan_source("crates/example/src/lib.rs", src);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].line, 5);
    }

    #[test]
    fn test_regions_are_masked() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::fs;\n    fn f() { println!(\"ok\"); }\n}\n#[cfg(test)]\npub(crate) fn test_dir() { std::fs::create_dir_all(\"x\").unwrap(); }\nfn live() { std::fs::read(\"y\").unwrap(); }\n";
        let vs = scan_source("crates/example/src/lib.rs", src);
        assert_eq!(vs.len(), 1, "only the live fn fires: {vs:?}");
        assert_eq!(vs[0].line, 8);
    }

    #[test]
    fn cfg_not_test_is_not_masked() {
        let src = "#[cfg(not(test))]\nfn live() { println!(\"x\"); }\n";
        let vs = scan_source("crates/example/src/lib.rs", src);
        assert_eq!(vs.len(), 1);
    }

    #[test]
    fn strings_and_comments_do_not_fire() {
        let src = "fn f() -> &'static str {\n    // println! std::fs .lock().unwrap()\n    /* OpenOptions */\n    let c = '\"';\n    let _ = c;\n    let r = r#\"println!(\"hi\") std::fs OpenOptions\"#;\n    r\n}\n";
        let vs = scan_source("crates/example/src/lib.rs", src);
        assert!(vs.is_empty(), "violations: {vs:?}");
    }

    #[test]
    fn allowlist_parses_and_filters() {
        let entries = parse_allowlist("# comment\nL1 crates/audit/src/lib.rs\n\nL3 a/b.rs\n");
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].lint, Lint::L1);
        assert_eq!(entries[0].path, "crates/audit/src/lib.rs");
    }

    #[test]
    fn workspace_audit_is_clean() {
        // The committed tree must pass its own audit — this is the same
        // check CI runs via `cargo run -p pbds-audit --release`.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let report = audit_workspace(&root).expect("workspace readable");
        assert!(
            report.violations.is_empty(),
            "workspace audit violations:\n{}",
            report
                .violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(report.files_scanned > 20);
    }
}
