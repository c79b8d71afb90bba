//! Abstract syntax tree for the Galois SQL dialect.
//!
//! The dialect covers the SPJA (select–project–join–aggregate) class the
//! paper executes against LLMs: `SELECT [DISTINCT] … FROM … [JOIN … ON …]
//! WHERE … GROUP BY … HAVING … ORDER BY … LIMIT …`, with arithmetic,
//! comparisons, `LIKE` / `IN` / `BETWEEN` / `IS NULL`, aggregate function
//! calls, and qualified names. Every node implements [`std::fmt::Display`]
//! producing canonical SQL text, which the test-suite round-trips through
//! the parser.

use std::fmt;

/// Where a relation's tuples come from in a hybrid query (paper §1, query
/// `q` over `LLM.country` and `DB.Employees`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceQualifier {
    /// Tuples are retrieved from the language model via prompts.
    Llm,
    /// Tuples live in the traditional relational store.
    Db,
}

impl fmt::Display for SourceQualifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceQualifier::Llm => write!(f, "LLM"),
            SourceQualifier::Db => write!(f, "DB"),
        }
    }
}

/// A literal value appearing in SQL text.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// Integer literal.
    Integer(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    String(String),
    /// `TRUE` / `FALSE`.
    Boolean(bool),
    /// `NULL`.
    Null,
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Integer(v) => write!(f, "{v}"),
            Literal::Float(v) => {
                if v.fract() == 0.0 && v.is_finite() {
                    // Keep canonical text parseable as a float.
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Literal::String(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Literal::Boolean(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Literal::Null => write!(f, "NULL"),
        }
    }
}

/// A possibly-qualified column reference, e.g. `c.name` or `population`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    /// Table name or alias qualifier, if written.
    pub table: Option<String>,
    /// Column name.
    pub column: String,
}

impl ColumnRef {
    /// An unqualified reference.
    pub fn bare(column: impl Into<String>) -> Self {
        ColumnRef {
            table: None,
            column: column.into(),
        }
    }

    /// A `table.column` reference.
    pub fn qualified(table: impl Into<String>, column: impl Into<String>) -> Self {
        ColumnRef {
            table: Some(table.into()),
            column: column.into(),
        }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(t) = &self.table {
            write!(f, "{t}.")?;
        }
        write!(f, "{}", self.column)
    }
}

/// Binary operators, in SQL spelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// `=`
    Eq,
    /// `<>`
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
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `AND`
    And,
    /// `OR`
    Or,
}

impl BinaryOp {
    /// True for comparison operators producing booleans.
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq
        )
    }
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Mod => "%",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
        };
        write!(f, "{s}")
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Arithmetic negation `-x`.
    Neg,
    /// Logical `NOT x`.
    Not,
}

/// Arguments of a function call.
#[derive(Debug, Clone, PartialEq)]
pub enum FunctionArgs {
    /// `COUNT(*)`.
    Star,
    /// Ordinary expression arguments.
    Exprs(Vec<Expr>),
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference.
    Column(ColumnRef),
    /// Literal value.
    Literal(Literal),
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Function call, e.g. `COUNT(DISTINCT name)` or `AVG(salary)`.
    Function {
        /// Uppercased function name.
        name: String,
        /// `DISTINCT` flag inside the call.
        distinct: bool,
        /// Call arguments.
        args: FunctionArgs,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// `expr [NOT] IN (v1, v2, …)`.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate list.
        list: Vec<Expr>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// True for `NOT BETWEEN`.
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern` with `%` and `_` wildcards.
    Like {
        /// Tested expression.
        expr: Box<Expr>,
        /// Pattern expression (almost always a string literal).
        pattern: Box<Expr>,
        /// True for `NOT LIKE`.
        negated: bool,
    },
}

impl Expr {
    /// Convenience constructor for binary nodes.
    pub fn binary(left: Expr, op: BinaryOp, right: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }

    /// Convenience constructor for a column reference expression.
    pub fn col(table: Option<&str>, column: &str) -> Expr {
        Expr::Column(ColumnRef {
            table: table.map(str::to_string),
            column: column.to_string(),
        })
    }

    /// Walks the expression tree, invoking `f` on every node (pre-order).
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Column(_) | Expr::Literal(_) => {}
            Expr::Unary { expr, .. } => expr.walk(f),
            Expr::Binary { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            Expr::Function { args, .. } => {
                if let FunctionArgs::Exprs(exprs) = args {
                    for e in exprs {
                        e.walk(f);
                    }
                }
            }
            Expr::IsNull { expr, .. } => expr.walk(f),
            Expr::InList { expr, list, .. } => {
                expr.walk(f);
                for e in list {
                    e.walk(f);
                }
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.walk(f);
                low.walk(f);
                high.walk(f);
            }
            Expr::Like { expr, pattern, .. } => {
                expr.walk(f);
                pattern.walk(f);
            }
        }
    }

    /// Collects every column referenced anywhere in the expression.
    pub fn referenced_columns(&self) -> Vec<ColumnRef> {
        let mut cols = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Column(c) = e {
                cols.push(c.clone());
            }
        });
        cols
    }

    /// True if the expression contains an aggregate function call.
    pub fn contains_aggregate(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if let Expr::Function { name, .. } = e {
                if is_aggregate_name(name) {
                    found = true;
                }
            }
        });
        found
    }
}

/// True if `name` (any case) is one of the supported aggregate functions.
pub fn is_aggregate_name(name: &str) -> bool {
    matches!(
        name.to_ascii_uppercase().as_str(),
        "COUNT" | "SUM" | "AVG" | "MIN" | "MAX"
    )
}

fn fmt_expr_prec(expr: &Expr, parent_prec: u8, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let prec = expr_precedence(expr);
    let need_parens = prec < parent_prec;
    if need_parens {
        write!(f, "(")?;
    }
    match expr {
        Expr::Column(c) => write!(f, "{c}")?,
        Expr::Literal(l) => write!(f, "{l}")?,
        Expr::Unary { op, expr } => match op {
            UnaryOp::Neg => {
                write!(f, "-")?;
                // Precedence 9 forces parens on a nested negation: `--x`
                // would otherwise lex as a line comment.
                fmt_expr_prec(expr, 9, f)?;
            }
            UnaryOp::Not => {
                write!(f, "NOT ")?;
                fmt_expr_prec(expr, 3, f)?;
            }
        },
        Expr::Binary { left, op, right } => {
            // Comparisons are non-associative in the grammar: a predicate
            // operand may not itself be a bare predicate, so force parens on
            // any operand below additive precedence.
            let (lp, rp) = if op.is_comparison() {
                (6, 6)
            } else {
                // Left-associative otherwise: right operand binds tighter.
                (prec, prec + 1)
            };
            fmt_expr_prec(left, lp, f)?;
            write!(f, " {op} ")?;
            fmt_expr_prec(right, rp, f)?;
        }
        Expr::Function {
            name,
            distinct,
            args,
        } => {
            write!(f, "{name}(")?;
            if *distinct {
                write!(f, "DISTINCT ")?;
            }
            match args {
                FunctionArgs::Star => write!(f, "*")?,
                FunctionArgs::Exprs(exprs) => {
                    for (i, e) in exprs.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{e}")?;
                    }
                }
            }
            write!(f, ")")?;
        }
        Expr::IsNull { expr, negated } => {
            fmt_expr_prec(expr, 6, f)?;
            write!(f, " IS {}NULL", if *negated { "NOT " } else { "" })?;
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            fmt_expr_prec(expr, 6, f)?;
            write!(f, " {}IN (", if *negated { "NOT " } else { "" })?;
            for (i, e) in list.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{e}")?;
            }
            write!(f, ")")?;
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            fmt_expr_prec(expr, 6, f)?;
            write!(f, " {}BETWEEN ", if *negated { "NOT " } else { "" })?;
            fmt_expr_prec(low, 6, f)?;
            write!(f, " AND ")?;
            fmt_expr_prec(high, 6, f)?;
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            fmt_expr_prec(expr, 6, f)?;
            write!(f, " {}LIKE ", if *negated { "NOT " } else { "" })?;
            fmt_expr_prec(pattern, 6, f)?;
        }
    }
    if need_parens {
        write!(f, ")")?;
    }
    Ok(())
}

fn expr_precedence(expr: &Expr) -> u8 {
    match expr {
        Expr::Binary { op, .. } => match op {
            BinaryOp::Or => 1,
            BinaryOp::And => 2,
            BinaryOp::Eq
            | BinaryOp::NotEq
            | BinaryOp::Lt
            | BinaryOp::LtEq
            | BinaryOp::Gt
            | BinaryOp::GtEq => 4,
            BinaryOp::Add | BinaryOp::Sub => 6,
            BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => 7,
        },
        Expr::Unary {
            op: UnaryOp::Not, ..
        } => 3,
        Expr::Unary {
            op: UnaryOp::Neg, ..
        } => 8,
        Expr::IsNull { .. } | Expr::InList { .. } | Expr::Between { .. } | Expr::Like { .. } => 5,
        Expr::Column(_) | Expr::Literal(_) | Expr::Function { .. } => 9,
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_expr_prec(self, 0, f)
    }
}

/// One output of the SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String),
    /// An expression with an optional `AS alias`.
    Expr {
        /// Output expression.
        expr: Expr,
        /// Optional alias.
        alias: Option<String>,
    },
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Wildcard => write!(f, "*"),
            SelectItem::QualifiedWildcard(t) => write!(f, "{t}.*"),
            SelectItem::Expr { expr, alias } => {
                write!(f, "{expr}")?;
                if let Some(a) = alias {
                    write!(f, " AS {a}")?;
                }
                Ok(())
            }
        }
    }
}

/// Join type for explicit `JOIN` clauses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    /// `[INNER] JOIN`.
    Inner,
    /// `LEFT [OUTER] JOIN`.
    LeftOuter,
}

impl fmt::Display for JoinType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinType::Inner => write!(f, "JOIN"),
            JoinType::LeftOuter => write!(f, "LEFT JOIN"),
        }
    }
}

/// A base table reference in the FROM clause.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// Optional `LLM.` / `DB.` source qualifier.
    pub source: Option<SourceQualifier>,
    /// Table name.
    pub name: String,
    /// Optional alias (`city c` or `city AS c`).
    pub alias: Option<String>,
}

impl TableRef {
    /// The name this table binds in the query scope: its alias if present,
    /// else the table name itself.
    pub fn binding(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
}

impl fmt::Display for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(src) = &self.source {
            write!(f, "{src}.")?;
        }
        write!(f, "{}", self.name)?;
        if let Some(a) = &self.alias {
            write!(f, " {a}")?;
        }
        Ok(())
    }
}

/// An explicit join attached to the FROM clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    /// Join flavour.
    pub join_type: JoinType,
    /// Joined relation.
    pub table: TableRef,
    /// `ON` predicate.
    pub on: Expr,
}

impl fmt::Display for Join {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, " {} {} ON {}", self.join_type, self.table, self.on)
    }
}

/// Sort direction in `ORDER BY`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortDirection {
    /// Ascending (`ASC`, the default).
    Asc,
    /// Descending (`DESC`).
    Desc,
}

/// One `ORDER BY` key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    /// Sort expression.
    pub expr: Expr,
    /// Direction.
    pub direction: SortDirection,
}

impl fmt::Display for OrderItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.expr)?;
        if self.direction == SortDirection::Desc {
            write!(f, " DESC")?;
        }
        Ok(())
    }
}

/// A full SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStatement {
    /// `DISTINCT` flag.
    pub distinct: bool,
    /// Projection list.
    pub items: Vec<SelectItem>,
    /// Comma-separated FROM relations (implicit cross join, filtered by
    /// WHERE — the style the paper's queries use).
    pub from: Vec<TableRef>,
    /// Explicit `JOIN … ON …` clauses applied after `from`.
    pub joins: Vec<Join>,
    /// `WHERE` predicate.
    pub where_clause: Option<Expr>,
    /// `GROUP BY` keys.
    pub group_by: Vec<Expr>,
    /// `HAVING` predicate.
    pub having: Option<Expr>,
    /// `ORDER BY` keys.
    pub order_by: Vec<OrderItem>,
    /// `LIMIT` row count.
    pub limit: Option<u64>,
    /// `OFFSET` row count (rows skipped before the limit applies; only
    /// meaningful alongside `limit` in this dialect).
    pub offset: Option<u64>,
}

impl SelectStatement {
    /// Every table referenced in FROM and JOIN clauses.
    pub fn tables(&self) -> impl Iterator<Item = &TableRef> {
        self.from.iter().chain(self.joins.iter().map(|j| &j.table))
    }

    /// True if the statement is grouped: a GROUP BY or a HAVING is present
    /// (as in standard SQL, a HAVING alone groups the whole input into one
    /// group), or a select item contains an aggregate.
    pub fn is_aggregate_query(&self) -> bool {
        if !self.group_by.is_empty() || self.having.is_some() {
            return true;
        }
        self.items.iter().any(|i| match i {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            _ => false,
        })
    }
}

impl fmt::Display for SelectStatement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        if self.distinct {
            write!(f, "DISTINCT ")?;
        }
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{item}")?;
        }
        if !self.from.is_empty() {
            write!(f, " FROM ")?;
            for (i, t) in self.from.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{t}")?;
            }
        }
        for j in &self.joins {
            write!(f, "{j}")?;
        }
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            write!(f, " GROUP BY ")?;
            for (i, g) in self.group_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{g}")?;
            }
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        if !self.order_by.is_empty() {
            write!(f, " ORDER BY ")?;
            for (i, o) in self.order_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{o}")?;
            }
        }
        if let Some(l) = self.limit {
            write!(f, " LIMIT {l}")?;
        }
        if let Some(o) = self.offset {
            write!(f, " OFFSET {o}")?;
        }
        Ok(())
    }
}

/// Top-level statement. The dialect is read-only: a query, or a request to
/// explain how a query would be planned (paper §6 — the plan *is* the
/// chain-of-thought, so inspecting it is a first-class operation).
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A query.
    Select(SelectStatement),
    /// `EXPLAIN <query>` — plan the query and report the chosen plan with
    /// its cost estimates instead of executing it.
    Explain(SelectStatement),
}

impl Statement {
    /// The SELECT body of the statement (the query itself for `Select`,
    /// the explained query for `Explain`).
    pub fn select(&self) -> &SelectStatement {
        match self {
            Statement::Select(s) | Statement::Explain(s) => s,
        }
    }

    /// True for `EXPLAIN <query>`.
    pub fn is_explain(&self) -> bool {
        matches!(self, Statement::Explain(_))
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Select(s) => write!(f, "{s}"),
            Statement::Explain(s) => write!(f, "EXPLAIN {s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_display() {
        assert_eq!(Literal::Integer(7).to_string(), "7");
        assert_eq!(Literal::Float(2.0).to_string(), "2.0");
        assert_eq!(Literal::Float(2.5).to_string(), "2.5");
        assert_eq!(Literal::String("it's".into()).to_string(), "'it''s'");
        assert_eq!(Literal::Boolean(true).to_string(), "TRUE");
        assert_eq!(Literal::Null.to_string(), "NULL");
    }

    #[test]
    fn column_ref_display() {
        assert_eq!(ColumnRef::bare("name").to_string(), "name");
        assert_eq!(ColumnRef::qualified("c", "name").to_string(), "c.name");
    }

    #[test]
    fn expr_display_respects_precedence() {
        // (a + b) * c needs parens; a + b * c does not.
        let a = Expr::col(None, "a");
        let b = Expr::col(None, "b");
        let c = Expr::col(None, "c");
        let sum = Expr::binary(a.clone(), BinaryOp::Add, b.clone());
        let e1 = Expr::binary(sum.clone(), BinaryOp::Mul, c.clone());
        assert_eq!(e1.to_string(), "(a + b) * c");
        let prod = Expr::binary(b, BinaryOp::Mul, c);
        let e2 = Expr::binary(a, BinaryOp::Add, prod);
        assert_eq!(e2.to_string(), "a + b * c");
    }

    #[test]
    fn expr_display_left_associativity() {
        // a - (b - c) must keep its parens.
        let a = Expr::col(None, "a");
        let b = Expr::col(None, "b");
        let c = Expr::col(None, "c");
        let inner = Expr::binary(b, BinaryOp::Sub, c);
        let e = Expr::binary(a, BinaryOp::Sub, inner);
        assert_eq!(e.to_string(), "a - (b - c)");
    }

    #[test]
    fn aggregate_detection() {
        let count = Expr::Function {
            name: "COUNT".into(),
            distinct: false,
            args: FunctionArgs::Star,
        };
        assert!(count.contains_aggregate());
        let plain = Expr::Function {
            name: "LOWER".into(),
            distinct: false,
            args: FunctionArgs::Exprs(vec![Expr::col(None, "x")]),
        };
        assert!(!plain.contains_aggregate());
    }

    #[test]
    fn referenced_columns_collects_nested() {
        let e = Expr::Between {
            expr: Box::new(Expr::col(Some("c"), "pop")),
            low: Box::new(Expr::col(None, "lo")),
            high: Box::new(Expr::Literal(Literal::Integer(5))),
            negated: false,
        };
        let cols = e.referenced_columns();
        assert_eq!(cols.len(), 2);
        assert_eq!(cols[0], ColumnRef::qualified("c", "pop"));
        assert_eq!(cols[1], ColumnRef::bare("lo"));
    }

    #[test]
    fn table_ref_binding() {
        let t = TableRef {
            source: None,
            name: "city".into(),
            alias: Some("c".into()),
        };
        assert_eq!(t.binding(), "c");
        let t2 = TableRef {
            source: Some(SourceQualifier::Llm),
            name: "country".into(),
            alias: None,
        };
        assert_eq!(t2.binding(), "country");
        assert_eq!(t2.to_string(), "LLM.country");
    }

    #[test]
    fn is_aggregate_query_via_group_by() {
        let stmt = SelectStatement {
            distinct: false,
            items: vec![SelectItem::Wildcard],
            from: vec![],
            joins: vec![],
            where_clause: None,
            group_by: vec![Expr::col(None, "x")],
            having: None,
            order_by: vec![],
            limit: None,
            offset: None,
        };
        assert!(stmt.is_aggregate_query());
    }

    #[test]
    fn a_having_without_an_aggregate_groups_the_statement() {
        let mut stmt = SelectStatement {
            distinct: false,
            items: vec![SelectItem::Expr {
                expr: Expr::col(None, "x"),
                alias: None,
            }],
            from: vec![],
            joins: vec![],
            where_clause: None,
            group_by: vec![],
            having: None,
            order_by: vec![],
            limit: None,
            offset: None,
        };
        assert!(!stmt.is_aggregate_query());
        stmt.having = Some(Expr::Literal(Literal::Boolean(false)));
        assert!(stmt.is_aggregate_query());
    }
}
