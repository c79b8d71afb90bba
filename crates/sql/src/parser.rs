//! Recursive-descent parser for the Galois SQL dialect.
//!
//! Grammar (simplified):
//!
//! ```text
//! select     := SELECT [DISTINCT] items FROM table (',' table)* join*
//!               [WHERE expr] [GROUP BY expr (',' expr)*] [HAVING expr]
//!               [ORDER BY order (',' order)*] [LIMIT int] [';']
//! join       := [INNER | LEFT [OUTER]] JOIN table ON expr
//! table      := [(LLM | DB) '.'] ident [[AS] ident]
//! expr       := or_expr
//! or_expr    := and_expr (OR and_expr)*
//! and_expr   := not_expr (AND not_expr)*
//! not_expr   := NOT not_expr | predicate
//! predicate  := additive [comparison | IS | IN | BETWEEN | LIKE suffix]
//! additive   := multiplic (('+'|'-') multiplic)*
//! multiplic  := unary (('*'|'/'|'%') unary)*
//! unary      := '-' unary | primary
//! primary    := literal | func_call | qualified_name | '(' expr ')'
//! ```
//!
//! Operator precedence matches the canonical printer in [`crate::ast`], so
//! `parse(stmt.to_string()) == stmt` for every AST the printer emits — a
//! property the test-suite checks with `proptest`.

use crate::ast::*;
use crate::error::{Result, Span, SqlError};
use crate::lexer::tokenize;
use crate::token::{Keyword, Token, TokenKind};

/// Parses a single SQL statement.
pub fn parse(sql: &str) -> Result<Statement> {
    let mut tokens = tokenize(sql)?;
    let eof = (tokens.pop_if(|t| t.kind == TokenKind::Eof))
        .unwrap_or_else(|| Token::new(TokenKind::Eof, Span::new(sql.len(), sql.len())));
    let mut p = Parser {
        tokens,
        eof,
        pos: 0,
    };
    let stmt = p.parse_statement()?;
    p.expect_eof()?;
    Ok(stmt)
}

/// Parses a statement and asserts it is a plain SELECT; convenience for
/// callers that want the select directly (an `EXPLAIN` is rejected, since
/// the caller asked for something to execute).
pub fn parse_select(sql: &str) -> Result<SelectStatement> {
    match parse(sql)? {
        Statement::Select(s) => Ok(s),
        Statement::Explain(_) => {
            // The statement parsed as EXPLAIN, so the keyword is the first
            // token: point the span at it, past any leading whitespace.
            let start = sql.len() - sql.trim_start().len();
            Err(SqlError::new(
                "expected a SELECT statement, found EXPLAIN",
                Span::new(start, start + "EXPLAIN".len()),
            ))
        }
    }
}

struct Parser {
    /// The statement's tokens up to, not including, its end.
    tokens: Vec<Token>,
    /// The end-of-input token, read at and past the end.
    eof: Token,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        self.tokens.get(self.pos).unwrap_or(&self.eof)
    }

    fn peek_kind(&self) -> &TokenKind {
        &self.peek().kind
    }

    fn advance(&mut self) {
        if self.pos < self.tokens.len() {
            self.pos += 1;
        }
    }

    /// The current token's text (an identifier's or a string literal's),
    /// moved out of the token, advancing past it. The parser never looks
    /// back, so the token is not read again.
    fn take_text(&mut self) -> String {
        let text = match self.tokens.get_mut(self.pos).map(|t| &mut t.kind) {
            Some(TokenKind::Ident(s) | TokenKind::QuotedIdent(s) | TokenKind::String(s)) => {
                std::mem::take(s)
            }
            _ => String::new(),
        };
        self.advance();
        text
    }

    fn error_here(&self, msg: impl Into<String>) -> SqlError {
        SqlError::new(msg, self.peek().span)
    }

    fn eat_keyword(&mut self, kw: Keyword) -> bool {
        if self.peek().is_keyword(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: Keyword) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.error_here(format!(
                "expected {}, found {}",
                kw.as_str(),
                self.peek_kind()
            )))
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek_kind() == kind {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<()> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(self.error_here(format!("expected {kind}, found {}", self.peek_kind())))
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        self.eat(&TokenKind::Semicolon);
        if self.peek_kind() == &TokenKind::Eof {
            Ok(())
        } else {
            Err(self.error_here(format!("unexpected trailing input: {}", self.peek_kind())))
        }
    }

    fn expect_ident(&mut self) -> Result<String> {
        match self.peek_kind() {
            TokenKind::Ident(_) | TokenKind::QuotedIdent(_) => Ok(self.take_text()),
            other => Err(self.error_here(format!("expected identifier, found {other}"))),
        }
    }

    fn parse_statement(&mut self) -> Result<Statement> {
        if self.eat_keyword(Keyword::Explain) {
            if !self.peek().is_keyword(Keyword::Select) {
                return Err(self.error_here("expected SELECT after EXPLAIN"));
            }
            return Ok(Statement::Explain(self.parse_select()?));
        }
        if self.peek().is_keyword(Keyword::Select) {
            Ok(Statement::Select(self.parse_select()?))
        } else {
            Err(self.error_here("expected SELECT or EXPLAIN"))
        }
    }

    fn parse_select(&mut self) -> Result<SelectStatement> {
        self.expect_keyword(Keyword::Select)?;
        let distinct = self.eat_keyword(Keyword::Distinct);

        let mut items = vec![self.parse_select_item()?];
        while self.eat(&TokenKind::Comma) {
            items.push(self.parse_select_item()?);
        }

        let mut from = Vec::new();
        let mut joins = Vec::new();
        if self.eat_keyword(Keyword::From) {
            from.push(self.parse_table_ref()?);
            loop {
                if self.eat(&TokenKind::Comma) {
                    from.push(self.parse_table_ref()?);
                } else if let Some(join) = self.try_parse_join()? {
                    joins.push(join);
                } else {
                    break;
                }
            }
        }

        let where_clause = if self.eat_keyword(Keyword::Where) {
            Some(self.parse_expr()?)
        } else {
            None
        };

        let mut group_by = Vec::new();
        if self.eat_keyword(Keyword::Group) {
            self.expect_keyword(Keyword::By)?;
            group_by.push(self.parse_expr()?);
            while self.eat(&TokenKind::Comma) {
                group_by.push(self.parse_expr()?);
            }
        }

        let having = if self.eat_keyword(Keyword::Having) {
            Some(self.parse_expr()?)
        } else {
            None
        };

        let mut order_by = Vec::new();
        if self.eat_keyword(Keyword::Order) {
            self.expect_keyword(Keyword::By)?;
            order_by.push(self.parse_order_item()?);
            while self.eat(&TokenKind::Comma) {
                order_by.push(self.parse_order_item()?);
            }
        }

        let limit = if self.eat_keyword(Keyword::Limit) {
            match self.peek_kind().clone() {
                TokenKind::Integer(v) => {
                    self.advance();
                    Some(v)
                }
                other => {
                    return Err(self.error_here(format!(
                        "LIMIT expects a non-negative integer, found {other}"
                    )));
                }
            }
        } else {
            None
        };

        let offset = if self.eat_keyword(Keyword::Offset) {
            if limit.is_none() {
                return Err(self.error_here("OFFSET requires a preceding LIMIT".to_string()));
            }
            match self.peek_kind().clone() {
                TokenKind::Integer(v) => {
                    self.advance();
                    Some(v)
                }
                other => {
                    return Err(self.error_here(format!(
                        "OFFSET expects a non-negative integer, found {other}"
                    )));
                }
            }
        } else {
            None
        };

        Ok(SelectStatement {
            distinct,
            items,
            from,
            joins,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
            offset,
        })
    }

    fn parse_select_item(&mut self) -> Result<SelectItem> {
        if self.eat(&TokenKind::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // `alias.*` needs two tokens of lookahead before falling back to a
        // general expression.
        if matches!(self.peek_kind(), TokenKind::Ident(_))
            && self.tokens.get(self.pos + 1).map(|t| &t.kind) == Some(&TokenKind::Dot)
            && self.tokens.get(self.pos + 2).map(|t| &t.kind) == Some(&TokenKind::Star)
        {
            let name = self.take_text();
            self.advance();
            self.advance();
            return Ok(SelectItem::QualifiedWildcard(name));
        }
        let expr = self.parse_expr()?;
        let explicit_as = self.eat_keyword(Keyword::As);
        let alias = if explicit_as || matches!(self.peek_kind(), TokenKind::Ident(_)) {
            // Bare alias (`SELECT salary s`) or explicit `AS s`.
            Some(self.expect_ident()?)
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn parse_table_ref(&mut self) -> Result<TableRef> {
        let first = self.expect_ident()?;
        let (source, name) = if self.peek_kind() == &TokenKind::Dot {
            let source = match first.to_ascii_uppercase().as_str() {
                "LLM" => Some(SourceQualifier::Llm),
                "DB" => Some(SourceQualifier::Db),
                other => {
                    return Err(self.error_here(format!(
                        "unknown source qualifier '{other}' (expected LLM or DB)"
                    )));
                }
            };
            self.advance(); // the dot
            (source, self.expect_ident()?)
        } else {
            (None, first)
        };
        let explicit_as = self.eat_keyword(Keyword::As);
        let alias = if explicit_as
            || matches!(
                self.peek_kind(),
                TokenKind::Ident(_) | TokenKind::QuotedIdent(_)
            ) {
            Some(self.expect_ident()?)
        } else {
            None
        };
        Ok(TableRef {
            source,
            name,
            alias,
        })
    }

    fn try_parse_join(&mut self) -> Result<Option<Join>> {
        let join_type = if self.peek().is_keyword(Keyword::Join) {
            self.advance();
            JoinType::Inner
        } else if self.peek().is_keyword(Keyword::Inner) {
            self.advance();
            self.expect_keyword(Keyword::Join)?;
            JoinType::Inner
        } else if self.peek().is_keyword(Keyword::Left) {
            self.advance();
            self.eat_keyword(Keyword::Outer);
            self.expect_keyword(Keyword::Join)?;
            JoinType::LeftOuter
        } else {
            return Ok(None);
        };
        let table = self.parse_table_ref()?;
        self.expect_keyword(Keyword::On)?;
        let on = self.parse_expr()?;
        Ok(Some(Join {
            join_type,
            table,
            on,
        }))
    }

    fn parse_order_item(&mut self) -> Result<OrderItem> {
        let expr = self.parse_expr()?;
        let direction = if self.eat_keyword(Keyword::Desc) {
            SortDirection::Desc
        } else {
            self.eat_keyword(Keyword::Asc);
            SortDirection::Asc
        };
        Ok(OrderItem { expr, direction })
    }

    /// Entry for expression parsing.
    pub(crate) fn parse_expr(&mut self) -> Result<Expr> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr> {
        let mut left = self.parse_and()?;
        while self.eat_keyword(Keyword::Or) {
            let right = self.parse_and()?;
            left = Expr::binary(left, BinaryOp::Or, right);
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut left = self.parse_not()?;
        while self.eat_keyword(Keyword::And) {
            let right = self.parse_not()?;
            left = Expr::binary(left, BinaryOp::And, right);
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr> {
        if self.eat_keyword(Keyword::Not) {
            let inner = self.parse_not()?;
            Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(inner),
            })
        } else {
            self.parse_predicate()
        }
    }

    fn parse_predicate(&mut self) -> Result<Expr> {
        let left = self.parse_additive()?;

        let cmp = match self.peek_kind() {
            TokenKind::Eq => Some(BinaryOp::Eq),
            TokenKind::NotEq => Some(BinaryOp::NotEq),
            TokenKind::Lt => Some(BinaryOp::Lt),
            TokenKind::LtEq => Some(BinaryOp::LtEq),
            TokenKind::Gt => Some(BinaryOp::Gt),
            TokenKind::GtEq => Some(BinaryOp::GtEq),
            _ => None,
        };
        if let Some(op) = cmp {
            self.advance();
            let right = self.parse_additive()?;
            return Ok(Expr::binary(left, op, right));
        }

        if self.eat_keyword(Keyword::Is) {
            let negated = self.eat_keyword(Keyword::Not);
            self.expect_keyword(Keyword::Null)?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }

        let negated = self.eat_keyword(Keyword::Not);
        if self.eat_keyword(Keyword::In) {
            self.expect(&TokenKind::LParen)?;
            let mut list = vec![self.parse_expr()?];
            while self.eat(&TokenKind::Comma) {
                list.push(self.parse_expr()?);
            }
            self.expect(&TokenKind::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if self.eat_keyword(Keyword::Between) {
            let low = self.parse_additive()?;
            self.expect_keyword(Keyword::And)?;
            let high = self.parse_additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_keyword(Keyword::Like) {
            let pattern = self.parse_additive()?;
            return Ok(Expr::Like {
                expr: Box::new(left),
                pattern: Box::new(pattern),
                negated,
            });
        }
        if negated {
            return Err(self.error_here("expected IN, BETWEEN or LIKE after NOT"));
        }
        Ok(left)
    }

    fn parse_additive(&mut self) -> Result<Expr> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Plus => BinaryOp::Add,
                TokenKind::Minus => BinaryOp::Sub,
                _ => break,
            };
            self.advance();
            let right = self.parse_multiplicative()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Star => BinaryOp::Mul,
                TokenKind::Slash => BinaryOp::Div,
                TokenKind::Percent => BinaryOp::Mod,
                _ => break,
            };
            self.advance();
            let right = self.parse_unary()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        if self.eat(&TokenKind::Minus) {
            // `-9223372036854775808` is `i64::MIN`, whose digits alone are
            // no `i64`: the one literal read with its sign.
            if self.peek_kind() == &TokenKind::Integer(i64::MIN.unsigned_abs()) {
                self.advance();
                return Ok(Expr::Literal(Literal::Integer(i64::MIN)));
            }
            let inner = self.parse_unary()?;
            // Fold negation of numeric literals so `-3` is a literal, which
            // keeps canonical printing stable.
            return Ok(match inner {
                Expr::Literal(Literal::Integer(v)) if v != i64::MIN => {
                    Expr::Literal(Literal::Integer(-v))
                }
                Expr::Literal(Literal::Float(v)) => Expr::Literal(Literal::Float(-v)),
                other => Expr::Unary {
                    op: UnaryOp::Neg,
                    expr: Box::new(other),
                },
            });
        }
        if self.eat(&TokenKind::Plus) {
            return self.parse_unary();
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        match *self.peek_kind() {
            TokenKind::Integer(v) => {
                let v = i64::try_from(v)
                    .map_err(|_| self.error_here("bad integer literal: number too large"))?;
                self.advance();
                Ok(Expr::Literal(Literal::Integer(v)))
            }
            TokenKind::Float(v) => {
                self.advance();
                Ok(Expr::Literal(Literal::Float(v)))
            }
            TokenKind::String(_) => Ok(Expr::Literal(Literal::String(self.take_text()))),
            TokenKind::Keyword(Keyword::True) => {
                self.advance();
                Ok(Expr::Literal(Literal::Boolean(true)))
            }
            TokenKind::Keyword(Keyword::False) => {
                self.advance();
                Ok(Expr::Literal(Literal::Boolean(false)))
            }
            TokenKind::Keyword(Keyword::Null) => {
                self.advance();
                Ok(Expr::Literal(Literal::Null))
            }
            TokenKind::LParen => {
                self.advance();
                let e = self.parse_expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(_) | TokenKind::QuotedIdent(_) => self.parse_name_or_call(),
            ref other => Err(self.error_here(format!("expected expression, found {other}"))),
        }
    }

    fn parse_name_or_call(&mut self) -> Result<Expr> {
        let mut name = self.expect_ident()?;
        if self.peek_kind() == &TokenKind::LParen {
            self.advance();
            let distinct = self.eat_keyword(Keyword::Distinct);
            let args = if self.eat(&TokenKind::Star) {
                FunctionArgs::Star
            } else if self.peek_kind() == &TokenKind::RParen {
                FunctionArgs::Exprs(Vec::new())
            } else {
                let mut exprs = vec![self.parse_expr()?];
                while self.eat(&TokenKind::Comma) {
                    exprs.push(self.parse_expr()?);
                }
                FunctionArgs::Exprs(exprs)
            };
            self.expect(&TokenKind::RParen)?;
            name.make_ascii_uppercase();
            return Ok(Expr::Function {
                name,
                distinct,
                args,
            });
        }
        if self.peek_kind() == &TokenKind::Dot {
            self.advance();
            let column = self.expect_ident()?;
            return Ok(Expr::Column(ColumnRef {
                table: Some(name),
                column,
            }));
        }
        Ok(Expr::Column(ColumnRef {
            table: None,
            column: name,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(sql: &str) -> String {
        parse(sql)
            .unwrap_or_else(|e| panic!("{sql}: {e}"))
            .to_string()
    }

    #[test]
    fn parse_paper_query_q() {
        // The hybrid query from the paper's introduction.
        let sql = "SELECT c.GDP, AVG(e.salary) \
                   FROM LLM.country c, DB.Employees e \
                   WHERE c.code = e.countryCode \
                   GROUP BY e.countryCode";
        let Statement::Select(s) = parse(sql).unwrap() else {
            panic!("expected SELECT")
        };
        assert_eq!(s.from.len(), 2);
        assert_eq!(s.from[0].source, Some(SourceQualifier::Llm));
        assert_eq!(s.from[1].source, Some(SourceQualifier::Db));
        assert_eq!(s.group_by.len(), 1);
        assert!(s.is_aggregate_query());
    }

    #[test]
    fn parse_paper_query_city_mayor() {
        let sql = "SELECT c.cityName, cm.birthDate \
                   FROM city c, cityMayor cm \
                   WHERE c.mayor = cm.name AND cm.electionYear = 2019";
        let Statement::Select(s) = parse(sql).unwrap() else {
            panic!("expected SELECT")
        };
        assert_eq!(s.items.len(), 2);
        assert!(s.where_clause.is_some());
        assert!(!s.is_aggregate_query());
    }

    #[test]
    fn parse_limit_with_offset() {
        let Statement::Select(s) = parse("SELECT name FROM city LIMIT 5 OFFSET 2").unwrap() else {
            panic!("expected SELECT")
        };
        assert_eq!(s.limit, Some(5));
        assert_eq!(s.offset, Some(2));
        assert_eq!(s.to_string(), "SELECT name FROM city LIMIT 5 OFFSET 2");
    }

    #[test]
    fn offset_without_limit_is_rejected() {
        let err = parse("SELECT name FROM city OFFSET 2").unwrap_err();
        assert!(err.to_string().contains("OFFSET"), "{err}");
    }

    #[test]
    fn parse_explicit_join() {
        let sql = "SELECT a.x FROM t1 a JOIN t2 b ON a.id = b.id LEFT JOIN t3 c ON b.id = c.id";
        let Statement::Select(s) = parse(sql).unwrap() else {
            panic!("expected SELECT")
        };
        assert_eq!(s.joins.len(), 2);
        assert_eq!(s.joins[0].join_type, JoinType::Inner);
        assert_eq!(s.joins[1].join_type, JoinType::LeftOuter);
    }

    #[test]
    fn parse_aggregates_and_having() {
        let sql = "SELECT country, COUNT(*), AVG(population) FROM city \
                   GROUP BY country HAVING COUNT(*) > 3 ORDER BY AVG(population) DESC LIMIT 5";
        let Statement::Select(s) = parse(sql).unwrap() else {
            panic!("expected SELECT")
        };
        assert!(s.is_aggregate_query());
        assert_eq!(s.limit, Some(5));
        assert_eq!(s.order_by[0].direction, SortDirection::Desc);
    }

    #[test]
    fn parse_predicates() {
        let s = parse_select(
            "SELECT name FROM city WHERE population BETWEEN 1 AND 5 \
             AND country IN ('Italy', 'France') AND name LIKE 'R%' AND mayor IS NOT NULL",
        )
        .unwrap();
        let w = s.where_clause.unwrap();
        let printed = w.to_string();
        assert!(printed.contains("BETWEEN 1 AND 5"));
        assert!(printed.contains("IN ('Italy', 'France')"));
        assert!(printed.contains("LIKE 'R%'"));
        assert!(printed.contains("IS NOT NULL"));
    }

    #[test]
    fn parse_not_variants() {
        roundtrip("SELECT x FROM t WHERE a NOT IN (1, 2)");
        roundtrip("SELECT x FROM t WHERE a NOT BETWEEN 1 AND 2");
        roundtrip("SELECT x FROM t WHERE a NOT LIKE 'x%'");
        roundtrip("SELECT x FROM t WHERE NOT a = 1");
    }

    #[test]
    fn parse_select_without_from() {
        let Statement::Select(s) = parse("SELECT 1 + 2 AS three").unwrap() else {
            panic!("expected SELECT")
        };
        assert!(s.from.is_empty());
        match &s.items[0] {
            SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("three")),
            other => panic!("unexpected item {other:?}"),
        }
    }

    #[test]
    fn parse_wildcards() {
        let Statement::Select(s) = parse("SELECT *, c.* FROM city c").unwrap() else {
            panic!("expected SELECT")
        };
        assert_eq!(s.items[0], SelectItem::Wildcard);
        assert_eq!(s.items[1], SelectItem::QualifiedWildcard("c".into()));
    }

    #[test]
    fn parse_count_distinct() {
        let Statement::Select(s) = parse("SELECT COUNT(DISTINCT country) FROM city").unwrap()
        else {
            panic!("expected SELECT")
        };
        match &s.items[0] {
            SelectItem::Expr {
                expr: Expr::Function { name, distinct, .. },
                ..
            } => {
                assert_eq!(name, "COUNT");
                assert!(*distinct);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn negative_literal_is_folded() {
        let Statement::Select(s) = parse("SELECT -5, -2.5").unwrap() else {
            panic!("expected SELECT")
        };
        assert_eq!(
            s.items[0],
            SelectItem::Expr {
                expr: Expr::Literal(Literal::Integer(-5)),
                alias: None
            }
        );
    }

    #[test]
    fn canonical_roundtrip_examples() {
        for sql in [
            "SELECT name FROM city",
            "SELECT DISTINCT c.name FROM city c WHERE c.population > 1000000",
            "SELECT c.GDP, AVG(e.salary) FROM LLM.country c, DB.Employees e WHERE c.code = e.countryCode GROUP BY e.countryCode",
            "SELECT country, COUNT(*) FROM airport GROUP BY country HAVING COUNT(*) >= 2 ORDER BY COUNT(*) DESC LIMIT 10",
            "SELECT a + b * c FROM t",
            "SELECT (a + b) * c FROM t",
            "SELECT x FROM t WHERE a = 1 AND b = 2 OR c = 3",
            "SELECT x FROM t WHERE a NOT BETWEEN 1 AND 2",
        ] {
            let once = roundtrip(sql);
            let twice = roundtrip(&once);
            assert_eq!(once, twice, "printer not a fixed point for {sql}");
        }
    }

    #[test]
    fn errors_are_reported_with_position() {
        let err = parse("SELECT FROM t").unwrap_err();
        assert!(err.span.start >= 7, "span {:?}", err.span);
        assert!(parse("SELECT a FROM").is_err());
        assert!(parse("SELECT a FROM t WHERE").is_err());
        assert!(parse("SELECT a FROM t LIMIT x").is_err());
        assert!(parse("SELECT a FROM t extra garbage !!").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn unknown_source_qualifier_is_rejected() {
        let err = parse("SELECT x FROM WEB.page").unwrap_err();
        assert!(err.message.contains("source qualifier"));
    }

    #[test]
    fn explain_select_parses() {
        let stmt = parse("EXPLAIN SELECT name FROM city WHERE population > 1000000").unwrap();
        assert!(stmt.is_explain());
        assert_eq!(stmt.select().from[0].name, "city");
        // The canonical printer round-trips through the parser.
        let printed = stmt.to_string();
        assert!(printed.starts_with("EXPLAIN SELECT"));
        assert_eq!(parse(&printed).unwrap(), stmt);
    }

    #[test]
    fn explain_is_case_insensitive_and_accepts_semicolon() {
        assert!(parse("explain select 1;").unwrap().is_explain());
    }

    #[test]
    fn explain_without_select_is_rejected() {
        let err = parse("EXPLAIN 1 + 2").unwrap_err();
        assert!(err.message.contains("after EXPLAIN"), "{err}");
        assert!(parse("EXPLAIN").is_err());
        assert!(parse("EXPLAIN EXPLAIN SELECT 1").is_err());
    }

    #[test]
    fn parse_select_rejects_explain() {
        let err = parse_select("EXPLAIN SELECT 1").unwrap_err();
        assert!(err.message.contains("EXPLAIN"), "{err}");
    }

    #[test]
    fn semicolon_is_accepted() {
        assert!(parse("SELECT 1;").is_ok());
    }

    #[test]
    fn trailing_tokens_rejected() {
        assert!(parse("SELECT 1; SELECT 2").is_err());
    }
}
