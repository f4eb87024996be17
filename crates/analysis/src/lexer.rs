//! A hand-rolled Rust lexer, just deep enough for structural linting.
//!
//! The rules need to scan source for identifiers, macro bangs, and
//! float literals *without* tripping over the same spellings inside
//! string literals, doc examples, or comments. The lexer therefore
//! classifies exactly what matters and no more:
//!
//! - line and (nested) block comments are skipped, so `/// x.unwrap()`
//!   doc examples never reach a rule;
//! - string, raw-string, byte-string, and char literals are single
//!   tokens, so `"panic!"` inside a message is inert;
//! - `'a` lifetimes are distinguished from `'a'` char literals;
//! - number literals are classified int vs float with Rust's rules:
//!   `0..10` and `1.max(2)` are ints, `2.`, `2.0`, `1e3`, and `1f64`
//!   are floats.
//!
//! Token positions are byte offsets, which the region helpers below
//! use to answer "is this occurrence inside a `#[cfg(test)]` item".

/// Token class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including raw `r#ident`).
    Ident,
    /// Integer literal (any base, any non-float suffix).
    Int,
    /// Float literal (fractional part, exponent, or f32/f64 suffix).
    Float,
    /// String literal of any flavour; `text` is the literal's content.
    Str,
    /// Char or byte literal.
    Char,
    /// Lifetime (`'a`).
    Lifetime,
    /// A single punctuation byte.
    Punct,
}

/// One token with its source position.
#[derive(Debug, Clone)]
pub struct Token {
    /// Class.
    pub kind: TokKind,
    /// Text: the identifier, the literal spelling, the string content
    /// (quotes and `r#` fences stripped), or the punctuation byte.
    pub text: String,
    /// 1-based source line of the token start.
    pub line: u32,
    /// Byte offset of the token start.
    pub pos: usize,
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_' || c >= 0x80
}

fn is_ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c >= 0x80
}

/// Tokenizes `src`. Invalid input never panics: unrecognised bytes
/// become `Punct` tokens and unterminated literals run to the end of
/// the file — good enough for linting code that rustc also sees.
pub fn lex(src: &str) -> Vec<Token> {
    Lexer {
        b: src.as_bytes(),
        i: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer<'a> {
    b: &'a [u8],
    i: usize,
    line: u32,
    out: Vec<Token>,
}

impl Lexer<'_> {
    fn run(mut self) -> Vec<Token> {
        while self.i < self.b.len() {
            let c = self.b[self.i];
            match c {
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                _ if c.is_ascii_whitespace() => self.i += 1,
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'"' => self.string(self.i),
                b'\'' => self.char_or_lifetime(),
                b'r' | b'b' if self.string_prefix().is_some() => {
                    let kind = self.string_prefix().expect("just checked");
                    self.prefixed_literal(kind);
                }
                _ if is_ident_start(c) => self.ident(),
                _ if c.is_ascii_digit() => self.number(),
                _ => {
                    self.push(TokKind::Punct, self.i, self.i + 1);
                    self.i += 1;
                }
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.b.get(self.i + ahead).copied()
    }

    fn push(&mut self, kind: TokKind, start: usize, end: usize) {
        self.out.push(Token {
            kind,
            text: String::from_utf8_lossy(&self.b[start..end]).into_owned(),
            line: self.line,
            pos: start,
        });
    }

    fn line_comment(&mut self) {
        while self.i < self.b.len() && self.b[self.i] != b'\n' {
            self.i += 1;
        }
    }

    fn block_comment(&mut self) {
        let mut depth = 1usize;
        self.i += 2;
        while self.i < self.b.len() && depth > 0 {
            match self.b[self.i] {
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                b'/' if self.peek(1) == Some(b'*') => {
                    depth += 1;
                    self.i += 2;
                }
                b'*' if self.peek(1) == Some(b'/') => {
                    depth -= 1;
                    self.i += 2;
                }
                _ => self.i += 1,
            }
        }
    }

    /// What literal (if any) starts at `i` with an `r`/`b`/`br` prefix?
    /// Returns the prefix length to skip, or None for a plain ident.
    fn string_prefix(&self) -> Option<Prefix> {
        let rest = &self.b[self.i..];
        if rest.starts_with(b"r#") {
            // r#"raw"# or r#ident: a raw string only if hashes lead to a quote.
            let hashes = rest[1..].iter().take_while(|&&c| c == b'#').count();
            return if rest.get(1 + hashes) == Some(&b'"') {
                Some(Prefix::Raw { skip: 1, hashes })
            } else {
                None // raw identifier, handled by ident()
            };
        }
        if rest.starts_with(b"r\"") {
            return Some(Prefix::Raw { skip: 1, hashes: 0 });
        }
        if rest.starts_with(b"b\"") {
            return Some(Prefix::Plain { skip: 1 });
        }
        if rest.starts_with(b"b'") {
            return Some(Prefix::ByteChar);
        }
        if rest.starts_with(b"br") {
            let hashes = rest[2..].iter().take_while(|&&c| c == b'#').count();
            if rest.get(2 + hashes) == Some(&b'"') {
                return Some(Prefix::Raw { skip: 2, hashes });
            }
        }
        None
    }

    fn prefixed_literal(&mut self, p: Prefix) {
        let start = self.i;
        match p {
            Prefix::Plain { skip } => {
                self.i += skip;
                self.string(start);
            }
            Prefix::ByteChar => {
                self.i += 1; // the `b`; char_or_lifetime consumes the quote
                self.char_or_lifetime();
                // Rewrite the token start to include the prefix.
                if let Some(t) = self.out.last_mut() {
                    t.pos = start;
                }
            }
            Prefix::Raw { skip, hashes } => {
                self.i += skip + hashes + 1; // prefix + hashes + opening quote
                let body_start = self.i;
                let mut body_end = self.b.len();
                while self.i < self.b.len() {
                    if self.b[self.i] == b'\n' {
                        self.line += 1;
                    }
                    if self.b[self.i] == b'"'
                        && self.b[self.i + 1..]
                            .iter()
                            .take(hashes)
                            .filter(|&&c| c == b'#')
                            .count()
                            == hashes
                    {
                        body_end = self.i;
                        self.i += 1 + hashes;
                        break;
                    }
                    self.i += 1;
                }
                let line = self.line;
                self.out.push(Token {
                    kind: TokKind::Str,
                    text: String::from_utf8_lossy(&self.b[body_start..body_end]).into_owned(),
                    line,
                    pos: start,
                });
            }
        }
    }

    /// A plain `"…"` string starting at the current quote; `start` is
    /// the token start (differs when a `b` prefix was consumed).
    fn string(&mut self, start: usize) {
        self.i += 1; // opening quote
        let body_start = self.i;
        let mut body_end = self.b.len();
        while self.i < self.b.len() {
            match self.b[self.i] {
                b'\\' => self.i += 2,
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                b'"' => {
                    body_end = self.i;
                    self.i += 1;
                    break;
                }
                _ => self.i += 1,
            }
        }
        let line = self.line;
        self.out.push(Token {
            kind: TokKind::Str,
            text: String::from_utf8_lossy(&self.b[body_start..body_end]).into_owned(),
            line,
            pos: start,
        });
    }

    /// `'a'` char vs `'a` lifetime vs `'\n'` escape.
    fn char_or_lifetime(&mut self) {
        let start = self.i;
        self.i += 1; // the quote
        match self.peek(0) {
            Some(b'\\') => {
                // Escaped char literal: skip escape, scan to closing quote.
                self.i += 2;
                while self.i < self.b.len() && self.b[self.i] != b'\'' {
                    self.i += 1;
                }
                self.i = (self.i + 1).min(self.b.len());
                self.push(TokKind::Char, start, self.i);
            }
            Some(c) if is_ident_continue(c) => {
                let mut j = self.i;
                while j < self.b.len() && is_ident_continue(self.b[j]) {
                    j += 1;
                }
                if self.b.get(j) == Some(&b'\'') {
                    self.i = j + 1;
                    self.push(TokKind::Char, start, self.i);
                } else {
                    self.i = j;
                    self.push(TokKind::Lifetime, start, self.i);
                }
            }
            Some(_) => {
                // 'x' with x non-ident (e.g. '(' ) — char literal.
                self.i += 1;
                if self.peek(0) == Some(b'\'') {
                    self.i += 1;
                }
                self.push(TokKind::Char, start, self.i);
            }
            None => self.push(TokKind::Punct, start, self.i),
        }
    }

    fn ident(&mut self) {
        let start = self.i;
        if self.b[self.i..].starts_with(b"r#") {
            self.i += 2; // raw identifier fence
        }
        while self.i < self.b.len() && is_ident_continue(self.b[self.i]) {
            self.i += 1;
        }
        self.push(TokKind::Ident, start, self.i);
    }

    fn number(&mut self) {
        let start = self.i;
        let mut float = false;
        if self.b[self.i..].starts_with(b"0x")
            || self.b[self.i..].starts_with(b"0o")
            || self.b[self.i..].starts_with(b"0b")
        {
            self.i += 2;
            while self.i < self.b.len()
                && (self.b[self.i].is_ascii_alphanumeric() || self.b[self.i] == b'_')
            {
                self.i += 1;
            }
            self.push(TokKind::Int, start, self.i);
            return;
        }
        while self.i < self.b.len() && (self.b[self.i].is_ascii_digit() || self.b[self.i] == b'_') {
            self.i += 1;
        }
        // Fractional part: `1.5` and `1.` are floats; `1..` is a range
        // and `1.max(…)` a method call, both leave the int intact.
        if self.peek(0) == Some(b'.') {
            match self.peek(1) {
                Some(c) if c.is_ascii_digit() => {
                    float = true;
                    self.i += 1;
                    while self.i < self.b.len()
                        && (self.b[self.i].is_ascii_digit() || self.b[self.i] == b'_')
                    {
                        self.i += 1;
                    }
                }
                Some(b'.') => {}
                Some(c) if is_ident_start(c) => {}
                _ => {
                    float = true;
                    self.i += 1;
                }
            }
        }
        // Exponent.
        if matches!(self.peek(0), Some(b'e' | b'E')) {
            let mut j = self.i + 1;
            if matches!(self.b.get(j), Some(b'+' | b'-')) {
                j += 1;
            }
            if self.b.get(j).is_some_and(u8::is_ascii_digit) {
                float = true;
                self.i = j;
                while self.i < self.b.len()
                    && (self.b[self.i].is_ascii_digit() || self.b[self.i] == b'_')
                {
                    self.i += 1;
                }
            }
        }
        // Suffix: `1f64` is a float, `1u64` an int.
        if self.peek(0).is_some_and(is_ident_start) {
            let s = self.i;
            while self.i < self.b.len() && is_ident_continue(self.b[self.i]) {
                self.i += 1;
            }
            if matches!(&self.b[s..self.i], b"f32" | b"f64") {
                float = true;
            }
        }
        self.push(
            if float { TokKind::Float } else { TokKind::Int },
            start,
            self.i,
        );
    }
}

enum Prefix {
    Plain { skip: usize },
    ByteChar,
    Raw { skip: usize, hashes: usize },
}

/// A half-open byte range of source the rules treat as exempt.
pub type Region = (usize, usize);

/// Is a byte offset inside any of `regions`?
pub fn in_regions(pos: usize, regions: &[Region]) -> bool {
    regions.iter().any(|&(a, b)| pos >= a && pos < b)
}

/// Byte regions of items gated by `#[cfg(…)]` attributes whose
/// argument mentions `test` (e.g. `#[cfg(test)] mod tests { … }`).
pub fn test_regions(toks: &[Token]) -> Vec<Region> {
    let mut out = Vec::new();
    let mut k = 0;
    while k + 3 < toks.len() {
        if !(is_punct(&toks[k], '#')
            && is_punct(&toks[k + 1], '[')
            && toks[k + 2].kind == TokKind::Ident
            && toks[k + 2].text == "cfg"
            && is_punct(&toks[k + 3], '('))
        {
            k += 1;
            continue;
        }
        let attr_start = toks[k].pos;
        // Scan the cfg argument list for `test`.
        let mut depth = 1usize;
        let mut j = k + 4;
        let mut found = false;
        while j < toks.len() && depth > 0 {
            if is_punct(&toks[j], '(') {
                depth += 1;
            } else if is_punct(&toks[j], ')') {
                depth -= 1;
            } else if toks[j].kind == TokKind::Ident && toks[j].text == "test" {
                found = true;
            }
            j += 1;
        }
        // Past the closing `]`, then past any further attributes.
        while j < toks.len() && !is_punct(&toks[j], ']') {
            j += 1;
        }
        j += 1;
        while j + 1 < toks.len() && is_punct(&toks[j], '#') && is_punct(&toks[j + 1], '[') {
            let mut d = 1usize;
            j += 2;
            while j < toks.len() && d > 0 {
                if is_punct(&toks[j], '[') {
                    d += 1;
                } else if is_punct(&toks[j], ']') {
                    d -= 1;
                }
                j += 1;
            }
        }
        if found {
            if let Some(end) = item_end(toks, j) {
                out.push((attr_start, end));
            }
        }
        k = j;
    }
    out
}

/// End offset of the item starting at token `j`: the matching `}` of
/// its first brace, or the first `;` before any brace opens.
fn item_end(toks: &[Token], mut j: usize) -> Option<usize> {
    while j < toks.len() {
        if is_punct(&toks[j], ';') {
            return Some(toks[j].pos + 1);
        }
        if is_punct(&toks[j], '{') {
            return brace_end(toks, j);
        }
        j += 1;
    }
    None
}

/// End offset (exclusive) of the brace block opening at token `j`.
fn brace_end(toks: &[Token], j: usize) -> Option<usize> {
    let mut depth = 0usize;
    for t in &toks[j..] {
        if is_punct(t, '{') {
            depth += 1;
        } else if is_punct(t, '}') {
            depth -= 1;
            if depth == 0 {
                return Some(t.pos + 1);
            }
        }
    }
    None
}

/// Is token `t` the punctuation byte `c`?
pub fn is_punct(t: &Token, c: char) -> bool {
    t.kind == TokKind::Punct && t.text.len() == 1 && t.text.as_bytes()[0] == c as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn comments_hide_everything() {
        assert!(kinds("// x.unwrap() panic!\n/* f64 /* nested */ 2.0 */").is_empty());
        assert_eq!(kinds("/// let x = v.unwrap();\nfn f() {}").len(), 6);
    }

    #[test]
    fn strings_are_single_tokens() {
        let t = kinds(r#"let s = "panic! \" f64";"#);
        assert_eq!(t[3].0, TokKind::Str);
        assert!(t.iter().filter(|(k, _)| *k == TokKind::Str).count() == 1);
        let r = kinds("let s = r#\"x.unwrap() \"quoted\" \"#;");
        assert_eq!(r[3], (TokKind::Str, "x.unwrap() \"quoted\" ".to_string()));
        let b = kinds(r#"let s = b"bytes";"#);
        assert_eq!(b[3].0, TokKind::Str);
    }

    #[test]
    fn chars_vs_lifetimes() {
        let t = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes = t.iter().filter(|(k, _)| *k == TokKind::Lifetime).count();
        let chars = t.iter().filter(|(k, _)| *k == TokKind::Char).count();
        assert_eq!((lifetimes, chars), (2, 2));
    }

    #[test]
    fn number_classification() {
        assert_eq!(kinds("0..10")[0].0, TokKind::Int);
        assert_eq!(kinds("1.max(2)")[0].0, TokKind::Int);
        assert_eq!(kinds("2.0")[0].0, TokKind::Float);
        assert_eq!(kinds("2.")[0].0, TokKind::Float);
        assert_eq!(kinds("1e3")[0].0, TokKind::Float);
        assert_eq!(kinds("1_000e-2")[0].0, TokKind::Float);
        assert_eq!(kinds("3f64")[0].0, TokKind::Float);
        assert_eq!(kinds("3u64")[0].0, TokKind::Int);
        assert_eq!(kinds("0xff_u32")[0].0, TokKind::Int);
        assert_eq!(kinds("1.0f32")[0].0, TokKind::Float);
    }

    #[test]
    fn raw_identifiers() {
        let t = kinds("let r#match = 1;");
        assert_eq!(t[1], (TokKind::Ident, "r#match".to_string()));
    }

    #[test]
    fn test_region_covers_mod() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests { fn b() { x.unwrap(); } }\n";
        let toks = lex(src);
        let regions = test_regions(&toks);
        assert_eq!(regions.len(), 1);
        let unwrap_pos = src.find("unwrap").expect("present");
        assert!(in_regions(unwrap_pos, &regions));
        assert!(!in_regions(0, &regions));
    }
}
