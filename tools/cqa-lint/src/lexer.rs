//! A hand-rolled Rust token scanner.
//!
//! The build container has no crates-io mirror, so `syn` is out of reach;
//! the lint rules only need a faithful *token* view anyway — idents,
//! punctuation, and string literals with comments set aside — not a parse
//! tree. The scanner handles the lexical subtleties that break naive
//! regex-based linting: nested block comments, raw strings with `#`
//! fences, byte strings, char literals vs. lifetimes, and escaped quotes.

/// Token classes the rules inspect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including raw `r#idents`, fence stripped).
    Ident,
    /// String literal (plain, raw, or byte); `text` is the *content*
    /// between the quotes, escapes left as written.
    Str,
    /// Character or byte-character literal.
    Char,
    /// A lifetime such as `'a` (tick stripped).
    Lifetime,
    /// Numeric literal, suffix included.
    Num,
    /// A single punctuation character.
    Punct(char),
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

impl Tok {
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }

    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }
}

struct Scanner<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    out: Vec<Tok>,
}

/// Scans `src` into code tokens; comments are skipped. Unterminated
/// constructs (string, block comment) consume to end of file rather than
/// erroring: the lint runs on code that `rustc` already accepted, so this
/// is only a guard against pathological fixtures.
pub fn lex(src: &str) -> Vec<Tok> {
    let mut s = Scanner { src: src.as_bytes(), pos: 0, line: 1, out: Vec::new() };
    s.run();
    s.out
}

impl<'a> Scanner<'a> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.src.get(self.pos).copied();
        if let Some(b) = b {
            self.pos += 1;
            if b == b'\n' {
                self.line += 1;
            }
        }
        b
    }

    fn push_tok(&mut self, kind: TokKind, text: String, line: u32) {
        self.out.push(Tok { kind, text, line });
    }

    fn run(&mut self) {
        while let Some(b) = self.peek(0) {
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'"' => self.string(),
                b'r' if self.peek(1) == Some(b'"') || self.peek(1) == Some(b'#') => {
                    if !self.raw_string_or_ident() {
                        self.ident();
                    }
                }
                b'b' if self.peek(1) == Some(b'"') => {
                    self.bump(); // b
                    self.string();
                }
                b'b' if self.peek(1) == Some(b'\'') => {
                    self.bump(); // b
                    self.char_lit();
                }
                b'b' if self.peek(1) == Some(b'r')
                    && (self.peek(2) == Some(b'"') || self.peek(2) == Some(b'#')) =>
                {
                    self.bump(); // b
                    if !self.raw_string_or_ident() {
                        self.ident();
                    }
                }
                b'\'' => self.char_or_lifetime(),
                b'_' | b'a'..=b'z' | b'A'..=b'Z' => self.ident(),
                b'0'..=b'9' => self.number(),
                _ => {
                    let line = self.line;
                    let c = self.bump().unwrap_or(b'?') as char;
                    self.push_tok(TokKind::Punct(c), c.to_string(), line);
                }
            }
        }
    }

    fn line_comment(&mut self) {
        while self.peek(0).is_some_and(|b| b != b'\n') {
            self.bump();
        }
    }

    fn block_comment(&mut self) {
        let mut depth = 0usize;
        loop {
            match (self.peek(0), self.peek(1)) {
                (Some(b'/'), Some(b'*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some(b'*'), Some(b'/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                    if depth == 0 {
                        break;
                    }
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break, // unterminated: tolerate
            }
        }
    }

    fn string(&mut self) {
        let line = self.line;
        self.bump(); // opening quote
        let start = self.pos;
        while let Some(b) = self.peek(0) {
            match b {
                b'\\' => {
                    self.bump();
                    self.bump(); // the escaped character, whatever it is
                }
                b'"' => break,
                _ => {
                    self.bump();
                }
            }
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.bump(); // closing quote
        self.push_tok(TokKind::Str, text, line);
    }

    /// At `r"`, `r#`, `br"`, or `br#` (the leading `b` already consumed).
    /// Returns false if this turns out to be a raw identifier (`r#ident`)
    /// instead of a raw string, leaving the scanner position untouched.
    fn raw_string_or_ident(&mut self) -> bool {
        let save_pos = self.pos;
        let save_line = self.line;
        self.bump(); // r
        let mut fence = 0usize;
        while self.peek(0) == Some(b'#') {
            fence += 1;
            self.bump();
        }
        if self.peek(0) != Some(b'"') {
            // r#ident — rewind and lex as identifier.
            self.pos = save_pos;
            self.line = save_line;
            return false;
        }
        self.bump(); // opening quote
        let start = self.pos;
        let end;
        'scan: loop {
            match self.peek(0) {
                Some(b'"') => {
                    let mut matched = 0usize;
                    while matched < fence && self.peek(1 + matched) == Some(b'#') {
                        matched += 1;
                    }
                    if matched == fence {
                        end = self.pos;
                        self.bump(); // quote
                        for _ in 0..fence {
                            self.bump();
                        }
                        break 'scan;
                    }
                    self.bump();
                }
                Some(_) => {
                    self.bump();
                }
                None => {
                    end = self.pos; // unterminated: tolerate
                    break 'scan;
                }
            }
        }
        let text = String::from_utf8_lossy(&self.src[start..end]).into_owned();
        self.push_tok(TokKind::Str, text, save_line);
        true
    }

    fn char_lit(&mut self) {
        let line = self.line;
        self.bump(); // opening tick
        let start = self.pos;
        while let Some(b) = self.peek(0) {
            match b {
                b'\\' => {
                    self.bump();
                    self.bump();
                }
                b'\'' => break,
                _ => {
                    self.bump();
                }
            }
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.bump(); // closing tick
        self.push_tok(TokKind::Char, text, line);
    }

    /// Disambiguates `'x'` (char) from `'label` (lifetime/loop label): a
    /// tick starts a char literal iff a closing tick follows the (possibly
    /// escaped) single character.
    fn char_or_lifetime(&mut self) {
        if self.peek(1) == Some(b'\\')
            || (self.peek(2) == Some(b'\'') && self.peek(1) != Some(b'\''))
        {
            self.char_lit();
            return;
        }
        let line = self.line;
        self.bump(); // tick
        let start = self.pos;
        while let Some(b) = self.peek(0) {
            if b == b'_' || b.is_ascii_alphanumeric() {
                self.bump();
            } else {
                break;
            }
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.push_tok(TokKind::Lifetime, text, line);
    }

    fn ident(&mut self) {
        let line = self.line;
        let start = self.pos;
        if self.peek(0) == Some(b'r') && self.peek(1) == Some(b'#') {
            self.bump();
            self.bump(); // raw-ident fence; keep only the name
        }
        let name_start = self.pos;
        while let Some(b) = self.peek(0) {
            if b == b'_' || b.is_ascii_alphanumeric() {
                self.bump();
            } else {
                break;
            }
        }
        let _ = start;
        let text = String::from_utf8_lossy(&self.src[name_start..self.pos]).into_owned();
        self.push_tok(TokKind::Ident, text, line);
    }

    fn number(&mut self) {
        let line = self.line;
        let start = self.pos;
        while let Some(b) = self.peek(0) {
            match b {
                b'0'..=b'9' | b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                    self.bump();
                }
                // Consume a dot only when a digit follows, so `0..n`
                // lexes as `0`, `.`, `.`, `n` rather than eating `0.`.
                b'.' if self.peek(1).is_some_and(|d| d.is_ascii_digit()) => {
                    self.bump();
                }
                _ => break,
            }
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.push_tok(TokKind::Num, text, line);
    }
}

/// Returns the token stream with every `#[cfg(test)]`-gated item removed
/// (also `cfg(all(test, …))` and `cfg_attr(test, …)`: any `cfg`-ish
/// attribute that mentions the `test` ident): the lint polices production
/// code only.
pub fn strip_cfg_test(toks: &[Tok]) -> Vec<Tok> {
    let mut out = Vec::with_capacity(toks.len());
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            // Find the attribute's closing bracket.
            let mut depth = 0usize;
            let mut j = i + 1;
            let mut mentions_cfg = false;
            let mut mentions_test = false;
            while j < toks.len() {
                match &toks[j].kind {
                    TokKind::Punct('[') => depth += 1,
                    TokKind::Punct(']') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    TokKind::Ident => {
                        if toks[j].text == "cfg" || toks[j].text == "cfg_attr" {
                            mentions_cfg = true;
                        }
                        if toks[j].text == "test" {
                            mentions_test = true;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            if mentions_cfg && mentions_test {
                // Skip the attribute and the item it gates: consume until
                // a top-level `;` (item without a body) or until the
                // item's brace block closes.
                i = j + 1;
                let mut nest = 0isize;
                let mut saw_brace = false;
                while i < toks.len() {
                    match toks[i].kind {
                        TokKind::Punct('{') | TokKind::Punct('(') | TokKind::Punct('[') => {
                            if toks[i].is_punct('{') {
                                saw_brace = true;
                            }
                            nest += 1;
                        }
                        TokKind::Punct('}') | TokKind::Punct(')') | TokKind::Punct(']') => {
                            nest -= 1;
                            if nest == 0 && saw_brace && toks[i].is_punct('}') {
                                i += 1;
                                break;
                            }
                        }
                        TokKind::Punct(';') if nest == 0 => {
                            i += 1;
                            break;
                        }
                        _ => {}
                    }
                    i += 1;
                }
                continue;
            }
        }
        out.push(toks[i].clone());
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn strings_comments_and_chars() {
        let l = lex("let s = \"a // not comment\"; // real\nlet c = 'x'; let lt: &'a u8;");
        assert!(l.iter().any(|t| t.kind == TokKind::Str && t.text == "a // not comment"));
        assert!(!l.iter().any(|t| t.is_ident("real")));
        assert!(l.iter().any(|t| t.kind == TokKind::Char && t.text == "x"));
        assert!(l.iter().any(|t| t.kind == TokKind::Lifetime && t.text == "a"));
    }

    #[test]
    fn raw_strings_and_raw_idents() {
        let l = lex(r####"let a = r#"has "quotes" inside"#; let r#fn = 1;"####);
        assert!(l.iter().any(|t| t.kind == TokKind::Str && t.text == r#"has "quotes" inside"#));
        assert!(l.iter().any(|t| t.kind == TokKind::Ident && t.text == "fn"));
    }

    #[test]
    fn nested_block_comments_are_comments() {
        let l = lex("/* outer /* inner */ still */ let x = 1;");
        assert!(l.iter().any(|t| t.is_ident("let")));
        for word in ["outer", "inner", "still"] {
            assert!(!l.iter().any(|t| t.is_ident(word)), "{word} lexed as code");
        }
    }

    #[test]
    fn escaped_quote_does_not_end_string() {
        let toks = kinds(r#"let s = "a\"b";"#);
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Str && t == r#"a\"b"#));
    }

    #[test]
    fn ranges_do_not_eat_dots() {
        let toks = kinds("for i in 0..10 {}");
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Num && t == "0"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Num && t == "10"));
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Punct('.')).count(), 2);
    }

    #[test]
    fn cfg_test_items_are_stripped() {
        let src = r#"
            fn keep() { hot(); }
            #[cfg(test)]
            mod tests {
                fn gone() { x.unwrap(); }
            }
            fn also_keep() {}
            #[cfg(all(test, feature = "x"))]
            fn gone_too() { panic!("x"); }
        "#;
        let stripped = strip_cfg_test(&lex(src));
        let names: Vec<&str> =
            stripped.iter().filter(|t| t.kind == TokKind::Ident).map(|t| t.text.as_str()).collect();
        assert!(names.contains(&"keep"));
        assert!(names.contains(&"also_keep"));
        assert!(!names.contains(&"gone"));
        assert!(!names.contains(&"unwrap"));
        assert!(!names.contains(&"gone_too"));
    }

    #[test]
    fn lifetimes_in_generics_are_not_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) -> Guard<'a, T> {}");
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Lifetime).count(), 3);
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Char).count(), 0);
    }
}
