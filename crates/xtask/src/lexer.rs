//! A small, dependency-free Rust lexer.
//!
//! This replaces the old `code_of` line stripper, which mishandled
//! `//` inside string literals, `'"'` char literals, raw strings, and
//! block comments (it never stripped the latter at all).  The lexer
//! walks the file once, tracking every literal and comment form the
//! reference grammar defines, and produces three per-line views plus a
//! token stream:
//!
//! * `code[i]`   — line `i` with every comment and every string/char
//!   literal *content* masked to spaces (delimiters kept), so substring
//!   rules (`Ordering::`, `Mutex`, …) only ever match real code;
//! * `comments[i]` — the comment text that covers line `i` (line
//!   comments, doc comments, and each line of a block comment), so
//!   justification markers (`// ordering:`, `BOUNDS:`, `ALLOC-OK:`)
//!   only ever match real comments;
//! * `tokens`    — identifiers and punctuation with line numbers, for
//!   the item parser and call-graph extraction.
//!
//! Handled: nested block comments, `//`/`///`/`//!` line comments,
//! `"…"` with escapes, byte strings `b"…"`, raw strings `r"…"` /
//! `r#"…"#` (any hash depth, also `br#"…"#`), char literals with
//! escapes (`'\''`, `'\\'`, `'\u{7FFF}'`), and the char-vs-lifetime
//! ambiguity (`'a'` is a char, `<'a>` is a lifetime).

/// One lexed token.  Literals are carried as [`TokKind::Lit`] with
/// their text masked — rules never need literal contents, only their
/// position (e.g. "an `[` after an identifier is an index site").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// 0-based line the token starts on.
    pub line: usize,
    pub kind: TokKind,
    /// Identifier text; single char for punctuation; empty for literals.
    pub text: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    Ident,
    /// String/char/number literal (contents irrelevant to every rule).
    Lit,
    /// A lifetime such as `'a` (distinct from a char literal).
    Lifetime,
    Punct,
}

/// A lexed source file: per-line masked views plus the token stream.
#[derive(Debug, Default)]
pub struct Lexed {
    pub code: Vec<String>,
    pub comments: Vec<String>,
    pub tokens: Vec<Tok>,
}

impl Lexed {
    /// The first line at or after which everything is test code: a
    /// column-0 `#[cfg(test)]` (test modules sit at the bottom of every
    /// module in this repo).  `usize::MAX` when absent.
    pub fn test_cut(&self, raw: &str) -> usize {
        raw.lines()
            .position(|l| l.starts_with("#[cfg(test)]"))
            .unwrap_or(usize::MAX)
    }
}

/// Lex `text` into per-line masked views and tokens.
pub fn lex(text: &str) -> Lexed {
    Lexer::new(text).run()
}

struct Lexer<'a> {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    /// Masked code, built line by line.
    code: Vec<String>,
    comments: Vec<String>,
    tokens: Vec<Tok>,
    _text: &'a str,
}

impl<'a> Lexer<'a> {
    fn new(text: &'a str) -> Self {
        Lexer {
            chars: text.chars().collect(),
            pos: 0,
            line: 0,
            code: vec![String::new()],
            comments: vec![String::new()],
            tokens: Vec::new(),
            _text: text,
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    /// Consume one char, appending `masked` (or the char itself) to the
    /// current code line and tracking newlines.
    fn bump_code(&mut self) {
        let c = self.chars[self.pos];
        self.pos += 1;
        if c == '\n' {
            self.newline();
        } else {
            self.code[self.line].push(c);
        }
    }

    /// Consume one char as masked content (space in the code view).
    fn bump_masked(&mut self) {
        let c = self.chars[self.pos];
        self.pos += 1;
        if c == '\n' {
            self.newline();
        } else {
            self.code[self.line].push(' ');
        }
    }

    /// Consume one char as comment text (space in code, text in comments).
    fn bump_comment(&mut self) {
        let c = self.chars[self.pos];
        self.pos += 1;
        if c == '\n' {
            self.newline();
        } else {
            self.code[self.line].push(' ');
            self.comments[self.line].push(c);
        }
    }

    fn newline(&mut self) {
        self.line += 1;
        self.code.push(String::new());
        self.comments.push(String::new());
    }

    fn push_tok(&mut self, kind: TokKind, text: String) {
        self.tokens.push(Tok {
            line: self.line,
            kind,
            text,
        });
    }

    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek(0) {
            match c {
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string_literal(),
                'b' if self.peek(1) == Some('"') => {
                    self.bump_code(); // the `b` prefix stays code
                    self.string_literal();
                }
                'r' | 'b' if self.raw_string_ahead() => self.raw_string(),
                'r' if self.peek(1) == Some('#')
                    && self.peek(2).is_some_and(|c| c.is_alphabetic() || c == '_') =>
                {
                    // Raw identifier `r#ident`.
                    self.bump_code();
                    self.bump_code();
                    self.ident();
                }
                '\'' => self.char_or_lifetime(),
                c if c.is_whitespace() => self.bump_code(),
                c if c.is_alphabetic() || c == '_' => self.ident(),
                c if c.is_ascii_digit() => self.number(),
                _ => {
                    self.push_tok(TokKind::Punct, c.to_string());
                    self.bump_code();
                }
            }
        }
        Lexed {
            code: self.code,
            comments: self.comments,
            tokens: self.tokens,
        }
    }

    fn line_comment(&mut self) {
        // The `//` itself stays in the comment view so markers like
        // `// ordering:` match verbatim.
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                self.bump_comment(); // newline bookkeeping
                return;
            }
            self.bump_comment();
        }
    }

    fn block_comment(&mut self) {
        let mut depth = 0usize;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                self.bump_comment();
                self.bump_comment();
            } else if c == '*' && self.peek(1) == Some('/') {
                self.bump_comment();
                self.bump_comment();
                depth -= 1;
                if depth == 0 {
                    return;
                }
            } else {
                self.bump_comment();
            }
        }
    }

    fn string_literal(&mut self) {
        self.bump_code(); // opening quote
        while let Some(c) = self.peek(0) {
            match c {
                '\\' => {
                    self.bump_masked();
                    if self.peek(0).is_some() {
                        self.bump_masked();
                    }
                }
                '"' => {
                    self.bump_code(); // closing quote
                    self.push_tok(TokKind::Lit, String::new());
                    return;
                }
                _ => self.bump_masked(),
            }
        }
    }

    /// Is a raw (byte) string starting here?  `r"`, `r#`, `br"`, `br#`.
    fn raw_string_ahead(&self) -> bool {
        let mut i = 1;
        if self.chars[self.pos] == 'b' {
            if self.peek(1) != Some('r') {
                return false;
            }
            i = 2;
        }
        loop {
            match self.peek(i) {
                Some('#') => i += 1,
                Some('"') => return true,
                _ => return false,
            }
        }
    }

    fn raw_string(&mut self) {
        // Consume prefix (`r` or `br`) and opening hashes as code.
        while let Some(c) = self.peek(0) {
            self.bump_code();
            if c == '"' {
                break;
            }
        }
        // Count the hashes we just consumed (scan back over the code line
        // is fragile across newlines; recount from the token stream is
        // overkill — recount from the chars before pos instead).
        let mut hashes = 0usize;
        let mut back = self.pos.saturating_sub(2); // before the quote
        while self.chars.get(back) == Some(&'#') {
            hashes += 1;
            if back == 0 {
                break;
            }
            back -= 1;
        }
        // Mask until `"` followed by `hashes` hashes.
        while let Some(c) = self.peek(0) {
            if c == '"' {
                let mut ok = true;
                for k in 0..hashes {
                    if self.peek(1 + k) != Some('#') {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    self.bump_code(); // closing quote
                    for _ in 0..hashes {
                        self.bump_code();
                    }
                    self.push_tok(TokKind::Lit, String::new());
                    return;
                }
            }
            self.bump_masked();
        }
    }

    fn char_or_lifetime(&mut self) {
        // `'\...'` and `'x'` are char literals; `'ident` (no closing
        // quote right after one char) is a lifetime.
        let is_char = match self.peek(1) {
            Some('\\') => true,
            Some(c) if c != '\'' => self.peek(2) == Some('\''),
            _ => false,
        };
        if !is_char {
            // Lifetime: consume `'` + identifier.
            let mut text = String::from("'");
            self.bump_code();
            while let Some(c) = self.peek(0) {
                if c.is_alphanumeric() || c == '_' {
                    text.push(c);
                    self.bump_code();
                } else {
                    break;
                }
            }
            self.push_tok(TokKind::Lifetime, text);
            return;
        }
        self.bump_code(); // opening quote
        while let Some(c) = self.peek(0) {
            match c {
                '\\' => {
                    self.bump_masked();
                    if self.peek(0).is_some() {
                        self.bump_masked();
                    }
                }
                '\'' => {
                    self.bump_code(); // closing quote
                    self.push_tok(TokKind::Lit, String::new());
                    return;
                }
                _ => self.bump_masked(),
            }
        }
    }

    fn ident(&mut self) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.bump_code();
            } else {
                break;
            }
        }
        self.push_tok(TokKind::Ident, text);
    }

    fn number(&mut self) {
        while let Some(c) = self.peek(0) {
            if c.is_ascii_alphanumeric() || c == '_' {
                self.bump_code();
            } else if c == '.' && self.peek(1).is_some_and(|d| d.is_ascii_digit()) {
                // Fraction: `1.5`, but not the range `0..5` or a method
                // call `1.max(2)`.
                self.bump_code();
            } else {
                break;
            }
        }
        self.push_tok(TokKind::Lit, String::new());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code_lines(src: &str) -> Vec<String> {
        lex(src).code
    }

    fn comment_lines(src: &str) -> Vec<String> {
        lex(src).comments
    }

    #[test]
    fn slashes_inside_strings_stay_code() {
        // Regression: the old `code_of` truncated at the `//` inside the
        // URL, hiding the Mutex after it.
        let src = r#"let _u = "https://x"; let _g = Mutex::new(());"#;
        let code = &code_lines(src)[0];
        assert!(code.contains("Mutex"), "{code:?}");
        assert!(!code.contains("https"), "string content masked: {code:?}");
    }

    #[test]
    fn double_quote_char_literal_does_not_open_a_string() {
        // Regression: the old stripper treated `'"'` as opening a string
        // and swallowed the rest of the line.
        let src = r#"let _q = '"'; c.store(2, Ordering::Relaxed);"#;
        let code = &code_lines(src)[0];
        assert!(code.contains("Ordering::Relaxed"), "{code:?}");
    }

    #[test]
    fn raw_strings_mask_their_contents() {
        let src = r##"let _r = r#"// not a comment "quote" Mutex"#; lock();"##;
        let code = &code_lines(src)[0];
        assert!(!code.contains("Mutex"), "{code:?}");
        assert!(!code.contains("not a comment"), "{code:?}");
        assert!(
            code.contains("lock"),
            "code after the literal kept: {code:?}"
        );
        assert!(comment_lines(src)[0].is_empty(), "no comment seen");
    }

    #[test]
    fn nested_block_comments_are_comments_to_the_end() {
        let src = "/* outer /* inner Mutex */ still */ real_code();";
        let code = &code_lines(src)[0];
        assert!(!code.contains("Mutex"), "{code:?}");
        assert!(code.contains("real_code"), "{code:?}");
        assert!(comment_lines(src)[0].contains("inner Mutex"));
    }

    #[test]
    fn multi_line_block_comment_attributes_text_per_line() {
        let src = "a();\n/* one\n two Mutex\n three */ b();\nc();";
        let lx = lex(src);
        assert!(lx.comments[2].contains("two Mutex"));
        assert!(!lx.code[2].contains("Mutex"));
        assert!(lx.code[3].contains("b"));
    }

    #[test]
    fn line_comments_keep_their_marker_text() {
        let src = "x.load(o); // ordering: Relaxed — counter.";
        let lx = lex(src);
        assert!(lx.comments[0].contains("// ordering:"));
        assert!(lx.code[0].contains("x.load"));
        assert!(!lx.code[0].contains("ordering:"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }";
        let lx = lex(src);
        assert!(lx.code[0].contains("str { x }"), "{:?}", lx.code[0]);
        let lifetimes = lx
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .count();
        assert_eq!(lifetimes, 3);
    }

    #[test]
    fn escaped_quote_chars_do_not_derail() {
        let src = r"let a = '\''; let b = '\\'; done();";
        let code = &code_lines(src)[0];
        assert!(code.contains("done"), "{code:?}");
    }

    #[test]
    fn byte_strings_mask_like_strings() {
        let src = r#"w.write(b"//raw bytes Mutex"); after();"#;
        let code = &code_lines(src)[0];
        assert!(!code.contains("Mutex"), "{code:?}");
        assert!(code.contains("after"), "{code:?}");
    }

    #[test]
    fn tokens_carry_idents_and_puncts_with_lines() {
        let src = "fn foo() {\n  bar.baz(1);\n}";
        let lx = lex(src);
        let idents: Vec<(&str, usize)> = lx
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| (t.text.as_str(), t.line))
            .collect();
        assert_eq!(idents, vec![("fn", 0), ("foo", 0), ("bar", 1), ("baz", 1)]);
    }

    #[test]
    fn unterminated_literals_do_not_loop_forever() {
        // Hostile/broken input must terminate (violations elsewhere will
        // surface through the normal rules).
        lex("let s = \"unterminated");
        lex("let c = '\\");
        lex("let r = r#\"unterminated");
        lex("/* unterminated");
    }
}
