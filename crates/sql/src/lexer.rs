//! Hand-written lexer for the Galois SQL dialect.
//!
//! The lexer converts SQL text into a flat [`Token`] stream. It handles:
//!
//! * keywords and identifiers (case-insensitive keyword matching),
//! * double-quoted identifiers (`"weird name"`),
//! * integer and float literals,
//! * single-quoted strings with `''` escaping,
//! * all operators and punctuation of the dialect,
//! * `--` line comments and `/* ... */` block comments.

use crate::error::{Result, Span, SqlError};
use crate::token::{Keyword, Token, TokenKind};

/// Streaming lexer over SQL text.
pub struct Lexer<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// Creates a lexer over `input`.
    pub fn new(input: &'a str) -> Self {
        Lexer {
            input,
            bytes: input.as_bytes(),
            pos: 0,
        }
    }

    /// Lexes the whole input, appending a final [`TokenKind::Eof`] token.
    pub fn tokenize(mut self) -> Result<Vec<Token>> {
        let mut out = Vec::new();
        loop {
            let tok = self.next_token()?;
            let eof = tok.kind == TokenKind::Eof;
            out.push(tok);
            if eof {
                return Ok(out);
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.bytes.get(self.pos + 1).copied()
    }

    fn skip_trivia(&mut self) -> Result<()> {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.pos += 1;
                }
                Some(b'-') if self.peek2() == Some(b'-') => {
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.pos += 1;
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let start = self.pos;
                    self.pos += 2;
                    loop {
                        match (self.peek(), self.peek2()) {
                            (Some(b'*'), Some(b'/')) => {
                                self.pos += 2;
                                break;
                            }
                            (Some(_), _) => self.pos += 1,
                            (None, _) => {
                                return Err(SqlError::new(
                                    "unterminated block comment",
                                    Span::new(start, self.pos),
                                ));
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn next_token(&mut self) -> Result<Token> {
        self.skip_trivia()?;
        let start = self.pos;
        let Some(b) = self.peek() else {
            return Ok(Token::new(TokenKind::Eof, Span::new(start, start)));
        };

        let kind = match b {
            b'(' => self.single(TokenKind::LParen),
            b')' => self.single(TokenKind::RParen),
            b',' => self.single(TokenKind::Comma),
            b'.' => self.single(TokenKind::Dot),
            b';' => self.single(TokenKind::Semicolon),
            b'+' => self.single(TokenKind::Plus),
            b'-' => self.single(TokenKind::Minus),
            b'*' => self.single(TokenKind::Star),
            b'/' => self.single(TokenKind::Slash),
            b'%' => self.single(TokenKind::Percent),
            b'=' => self.single(TokenKind::Eq),
            b'<' => {
                self.pos += 1;
                match self.peek() {
                    Some(b'=') => self.single(TokenKind::LtEq),
                    Some(b'>') => self.single(TokenKind::NotEq),
                    _ => TokenKind::Lt,
                }
            }
            b'>' => {
                self.pos += 1;
                match self.peek() {
                    Some(b'=') => self.single(TokenKind::GtEq),
                    _ => TokenKind::Gt,
                }
            }
            b'!' => {
                self.pos += 1;
                match self.peek() {
                    Some(b'=') => self.single(TokenKind::NotEq),
                    _ => {
                        return Err(SqlError::new(
                            "unexpected character '!'",
                            Span::new(start, self.pos),
                        ));
                    }
                }
            }
            b'\'' => self.lex_string(start)?,
            b'"' => self.lex_quoted_ident(start)?,
            b'0'..=b'9' => self.lex_number(start)?,
            b if b.is_ascii_alphabetic() || b == b'_' => self.lex_word(start),
            _ => {
                // The whole character, which may be several bytes long.
                let ch = self.input[start..].chars().next().unwrap_or_default();
                return Err(SqlError::new(
                    format!("unexpected character '{ch}'"),
                    Span::new(start, start + ch.len_utf8()),
                ));
            }
        };
        Ok(Token::new(kind, Span::new(start, self.pos)))
    }

    fn single(&mut self, kind: TokenKind) -> TokenKind {
        self.pos += 1;
        kind
    }

    fn lex_string(&mut self, start: usize) -> Result<TokenKind> {
        debug_assert_eq!(self.peek(), Some(b'\''));
        self.pos += 1;
        let mut value = String::new();
        loop {
            // Whole (possibly multi-byte) characters: `pos` stays on a
            // character boundary.
            match self.input[self.pos..].chars().next() {
                Some('\'') => {
                    self.pos += 1;
                    // SQL escapes a quote inside a string as ''.
                    if self.peek() == Some(b'\'') {
                        value.push('\'');
                        self.pos += 1;
                    } else {
                        return Ok(TokenKind::String(value));
                    }
                }
                Some(ch) => {
                    value.push(ch);
                    self.pos += ch.len_utf8();
                }
                None => {
                    return Err(SqlError::new(
                        "unterminated string literal",
                        Span::new(start, self.pos),
                    ));
                }
            }
        }
    }

    fn lex_quoted_ident(&mut self, start: usize) -> Result<TokenKind> {
        debug_assert_eq!(self.peek(), Some(b'"'));
        self.pos += 1;
        let ident_start = self.pos;
        while let Some(b) = self.peek() {
            if b == b'"' {
                let ident = self.input[ident_start..self.pos].to_string();
                self.pos += 1;
                if ident.is_empty() {
                    return Err(SqlError::new(
                        "empty quoted identifier",
                        Span::new(start, self.pos),
                    ));
                }
                return Ok(TokenKind::QuotedIdent(ident));
            }
            self.pos += 1;
        }
        Err(SqlError::new(
            "unterminated quoted identifier",
            Span::new(start, self.pos),
        ))
    }

    fn lex_number(&mut self, start: usize) -> Result<TokenKind> {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        // A dot only makes this a float if a digit follows; `1.name` must lex
        // as Integer, Dot, Ident for qualified-name syntax to survive.
        if self.peek() == Some(b'.') && matches!(self.peek2(), Some(b'0'..=b'9')) {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            let mut lookahead = self.pos + 1;
            if matches!(self.bytes.get(lookahead), Some(b'+') | Some(b'-')) {
                lookahead += 1;
            }
            if matches!(self.bytes.get(lookahead), Some(b'0'..=b'9')) {
                is_float = true;
                self.pos = lookahead;
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
        }
        let text = &self.input[start..self.pos];
        if is_float {
            text.parse::<f64>().map(TokenKind::Float).map_err(|e| {
                SqlError::new(
                    format!("bad float literal: {e}"),
                    Span::new(start, self.pos),
                )
            })
        } else {
            text.parse::<u64>().map(TokenKind::Integer).map_err(|e| {
                SqlError::new(
                    format!("bad integer literal: {e}"),
                    Span::new(start, self.pos),
                )
            })
        }
    }

    fn lex_word(&mut self, start: usize) -> TokenKind {
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = &self.input[start..self.pos];
        match Keyword::from_str(text) {
            Some(kw) => TokenKind::Keyword(kw),
            None => TokenKind::Ident(text.to_string()),
        }
    }
}

/// Lexes `input` into a token vector ending with [`TokenKind::Eof`].
pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    Lexer::new(input).tokenize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(sql: &str) -> Vec<TokenKind> {
        tokenize(sql).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lex_simple_select() {
        let ks = kinds("SELECT name FROM city");
        assert_eq!(
            ks,
            vec![
                TokenKind::Keyword(Keyword::Select),
                TokenKind::Ident("name".into()),
                TokenKind::Keyword(Keyword::From),
                TokenKind::Ident("city".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lex_operators() {
        let ks = kinds("a <= b >= c <> d != e < f > g = h");
        let ops: Vec<_> = ks
            .into_iter()
            .filter(|k| !matches!(k, TokenKind::Ident(_) | TokenKind::Eof))
            .collect();
        assert_eq!(
            ops,
            vec![
                TokenKind::LtEq,
                TokenKind::GtEq,
                TokenKind::NotEq,
                TokenKind::NotEq,
                TokenKind::Lt,
                TokenKind::Gt,
                TokenKind::Eq,
            ]
        );
    }

    #[test]
    fn lex_numbers() {
        assert_eq!(
            kinds("42 3.5 1e3 2.5e-2 7"),
            vec![
                TokenKind::Integer(42),
                TokenKind::Float(3.5),
                TokenKind::Float(1000.0),
                TokenKind::Float(0.025),
                TokenKind::Integer(7),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn qualified_name_after_integer_is_not_a_float() {
        // Regression guard: `1.name` must not lex the `1.` as a float.
        assert_eq!(
            kinds("1.name"),
            vec![
                TokenKind::Integer(1),
                TokenKind::Dot,
                TokenKind::Ident("name".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lex_string_with_escape() {
        assert_eq!(
            kinds("'it''s'"),
            vec![TokenKind::String("it's".into()), TokenKind::Eof]
        );
    }

    #[test]
    fn lex_unicode_string() {
        assert_eq!(
            kinds("'Zürich'"),
            vec![TokenKind::String("Zürich".into()), TokenKind::Eof]
        );
    }

    #[test]
    fn lex_quoted_identifier() {
        assert_eq!(
            kinds("\"Mixed Case\""),
            vec![TokenKind::QuotedIdent("Mixed Case".into()), TokenKind::Eof]
        );
    }

    #[test]
    fn lex_comments_are_skipped() {
        let ks = kinds("SELECT -- trailing\n/* block\n comment */ 1");
        assert_eq!(
            ks,
            vec![
                TokenKind::Keyword(Keyword::Select),
                TokenKind::Integer(1),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn unterminated_string_is_an_error() {
        assert!(tokenize("'oops").is_err());
    }

    #[test]
    fn unterminated_block_comment_is_an_error() {
        assert!(tokenize("/* nope").is_err());
    }

    #[test]
    fn bare_bang_is_an_error() {
        assert!(tokenize("a ! b").is_err());
    }

    #[test]
    fn a_stray_character_is_named_whole() {
        for (ch, end) in [("é", 9), ("東", 10), ("🦀", 11)] {
            let sql = format!("SELECT {ch} FROM city");
            let err = tokenize(&sql).unwrap_err();
            assert_eq!(err.message, format!("unexpected character '{ch}'"));
            assert_eq!(err.span, Span::new(7, end));
            assert_eq!(err.span.slice(&sql), ch);
        }
    }

    #[test]
    fn empty_input_yields_only_eof() {
        assert_eq!(kinds("   "), vec![TokenKind::Eof]);
    }

    #[test]
    fn spans_point_at_source() {
        let toks = tokenize("SELECT name").unwrap();
        assert_eq!(toks[1].span.slice("SELECT name"), "name");
    }
}
