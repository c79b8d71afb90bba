//! Token definitions for the Galois SQL dialect.

use crate::error::Span;
use std::fmt;

/// SQL keywords recognised by the lexer.
///
/// Identifiers are matched case-insensitively against this list; anything
/// not listed here lexes as [`TokenKind::Ident`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants are the keywords themselves
pub enum Keyword {
    Select,
    Distinct,
    From,
    Where,
    Group,
    By,
    Having,
    Order,
    Limit,
    Offset,
    Asc,
    Desc,
    And,
    Or,
    Not,
    In,
    Like,
    Between,
    Is,
    Null,
    True,
    False,
    Join,
    Inner,
    Left,
    Outer,
    On,
    As,
    Explain,
}

impl Keyword {
    /// Looks up a keyword from an identifier, case-insensitively.
    /// (Not the `FromStr` trait: lookup is infallible-by-Option, not Result.)
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(s: &str) -> Option<Keyword> {
        // SQL keyword sets are small; a linear match on the uppercased text
        // is faster than building a map for this size. The text is upper-
        // cased into a stack buffer as long as the longest keyword, so a
        // longer word is no keyword and nothing is allocated.
        let mut buf = [0u8; 8];
        let up = buf.get_mut(..s.len())?;
        up.copy_from_slice(s.as_bytes());
        up.make_ascii_uppercase();
        Some(match &*up {
            b"SELECT" => Keyword::Select,
            b"DISTINCT" => Keyword::Distinct,
            b"FROM" => Keyword::From,
            b"WHERE" => Keyword::Where,
            b"GROUP" => Keyword::Group,
            b"BY" => Keyword::By,
            b"HAVING" => Keyword::Having,
            b"ORDER" => Keyword::Order,
            b"LIMIT" => Keyword::Limit,
            b"OFFSET" => Keyword::Offset,
            b"ASC" => Keyword::Asc,
            b"DESC" => Keyword::Desc,
            b"AND" => Keyword::And,
            b"OR" => Keyword::Or,
            b"NOT" => Keyword::Not,
            b"IN" => Keyword::In,
            b"LIKE" => Keyword::Like,
            b"BETWEEN" => Keyword::Between,
            b"IS" => Keyword::Is,
            b"NULL" => Keyword::Null,
            b"TRUE" => Keyword::True,
            b"FALSE" => Keyword::False,
            b"JOIN" => Keyword::Join,
            b"INNER" => Keyword::Inner,
            b"LEFT" => Keyword::Left,
            b"OUTER" => Keyword::Outer,
            b"ON" => Keyword::On,
            b"AS" => Keyword::As,
            b"EXPLAIN" => Keyword::Explain,
            _ => return None,
        })
    }

    /// The canonical (uppercase) spelling of the keyword.
    pub fn as_str(&self) -> &'static str {
        match self {
            Keyword::Select => "SELECT",
            Keyword::Distinct => "DISTINCT",
            Keyword::From => "FROM",
            Keyword::Where => "WHERE",
            Keyword::Group => "GROUP",
            Keyword::By => "BY",
            Keyword::Having => "HAVING",
            Keyword::Order => "ORDER",
            Keyword::Limit => "LIMIT",
            Keyword::Offset => "OFFSET",
            Keyword::Asc => "ASC",
            Keyword::Desc => "DESC",
            Keyword::And => "AND",
            Keyword::Or => "OR",
            Keyword::Not => "NOT",
            Keyword::In => "IN",
            Keyword::Like => "LIKE",
            Keyword::Between => "BETWEEN",
            Keyword::Is => "IS",
            Keyword::Null => "NULL",
            Keyword::True => "TRUE",
            Keyword::False => "FALSE",
            Keyword::Join => "JOIN",
            Keyword::Inner => "INNER",
            Keyword::Left => "LEFT",
            Keyword::Outer => "OUTER",
            Keyword::On => "ON",
            Keyword::As => "AS",
            Keyword::Explain => "EXPLAIN",
        }
    }
}

/// The kind of a lexed token, carrying any literal payload.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// A recognised SQL keyword.
    Keyword(Keyword),
    /// A bare identifier (table, column, alias, function name).
    Ident(String),
    /// A double-quoted identifier, kept verbatim (case-sensitive).
    QuotedIdent(String),
    /// An integer literal, e.g. `42`: digits only — a minus sign is a
    /// token of its own, so the parser decides what fits an `i64`.
    Integer(u64),
    /// A floating point literal, e.g. `3.14`.
    Float(f64),
    /// A single-quoted string literal with escapes resolved.
    String(String),
    /// `=`
    Eq,
    /// `<>` or `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `;`
    Semicolon,
    /// End of input marker appended by the lexer.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Keyword(k) => write!(f, "{}", k.as_str()),
            TokenKind::Ident(s) => write!(f, "{s}"),
            TokenKind::QuotedIdent(s) => write!(f, "\"{s}\""),
            TokenKind::Integer(v) => write!(f, "{v}"),
            TokenKind::Float(v) => write!(f, "{v}"),
            TokenKind::String(s) => write!(f, "'{s}'"),
            TokenKind::Eq => write!(f, "="),
            TokenKind::NotEq => write!(f, "<>"),
            TokenKind::Lt => write!(f, "<"),
            TokenKind::LtEq => write!(f, "<="),
            TokenKind::Gt => write!(f, ">"),
            TokenKind::GtEq => write!(f, ">="),
            TokenKind::Plus => write!(f, "+"),
            TokenKind::Minus => write!(f, "-"),
            TokenKind::Star => write!(f, "*"),
            TokenKind::Slash => write!(f, "/"),
            TokenKind::Percent => write!(f, "%"),
            TokenKind::LParen => write!(f, "("),
            TokenKind::RParen => write!(f, ")"),
            TokenKind::Comma => write!(f, ","),
            TokenKind::Dot => write!(f, "."),
            TokenKind::Semicolon => write!(f, ";"),
            TokenKind::Eof => write!(f, "<eof>"),
        }
    }
}

/// A token with its source location.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// What was lexed.
    pub kind: TokenKind,
    /// Where it sits in the input.
    pub span: Span,
}

impl Token {
    /// Creates a token.
    pub fn new(kind: TokenKind, span: Span) -> Self {
        Token { kind, span }
    }

    /// True if this token is the given keyword.
    pub fn is_keyword(&self, kw: Keyword) -> bool {
        matches!(self.kind, TokenKind::Keyword(k) if k == kw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_lookup_is_case_insensitive() {
        assert_eq!(Keyword::from_str("select"), Some(Keyword::Select));
        assert_eq!(Keyword::from_str("SeLeCt"), Some(Keyword::Select));
        assert_eq!(Keyword::from_str("GROUP"), Some(Keyword::Group));
        assert_eq!(Keyword::from_str("city"), None);
        assert_eq!(Keyword::from_str("DiStInCt"), Some(Keyword::Distinct));
        assert_eq!(Keyword::from_str("distincts"), None);
        assert_eq!(Keyword::from_str(""), None);
        assert_eq!(Keyword::from_str("sélect"), None);
    }

    #[test]
    fn keyword_roundtrips_through_as_str() {
        for kw in [
            Keyword::Select,
            Keyword::Between,
            Keyword::Outer,
            Keyword::Limit,
            Keyword::As,
        ] {
            assert_eq!(Keyword::from_str(kw.as_str()), Some(kw));
        }
    }

    #[test]
    fn token_keyword_predicate() {
        let t = Token::new(TokenKind::Keyword(Keyword::From), Span::new(0, 4));
        assert!(t.is_keyword(Keyword::From));
        assert!(!t.is_keyword(Keyword::Select));
    }

    #[test]
    fn display_of_operators() {
        assert_eq!(TokenKind::NotEq.to_string(), "<>");
        assert_eq!(TokenKind::String("it".into()).to_string(), "'it'");
    }
}
