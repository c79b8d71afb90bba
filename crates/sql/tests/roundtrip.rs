//! Property tests: every AST the canonical printer emits must re-parse to
//! an identical AST, and printing must be a fixed point.

use galois_sql::ast::*;
use galois_sql::lexer::tokenize;
use galois_sql::{parse, SqlError};
use proptest::prelude::*;

/// SQL-ish text: the dialect's punctuation, quotes and comment openers,
/// digits, letters, whitespace, and characters of two, three and four
/// bytes (`é`, `東`, `🦀`, and the two-byte no-break space).
const SQL_TEXT: &str = "[a-z0-9 ,.;*()<>=!'\"_%+/\n\u{a0}é東🦀-]{0,8}";

/// A statement-shaped draw: dialect words and qualifiers interleaved with
/// [`SQL_TEXT`] runs.
fn mixed_sql_strategy() -> impl Strategy<Value = String> {
    let word = prop::sample::select(vec![
        "SELECT", "FROM", "WHERE", "AND", "LIKE", "LIMIT", "EXPLAIN", "LLM.", "DB.", "city",
        "name", "--", "/*", "*/", "'", "\"",
    ])
    .prop_map(str::to_string);
    prop::collection::vec(prop_oneof![word, SQL_TEXT], 0..12).prop_map(|parts| parts.join(" "))
}

/// An error's span must cut `input` on character boundaries, so that
/// `Span::slice` names the offending text.
fn on_char_boundaries(input: &str, error: &SqlError) -> bool {
    let span = error.span;
    span.start <= span.end && input.is_char_boundary(span.start) && input.is_char_boundary(span.end)
}

/// Identifiers that can never collide with dialect keywords.
fn ident_strategy() -> impl Strategy<Value = String> {
    prop::sample::select(vec![
        "city",
        "country",
        "mayor",
        "population",
        "gdp",
        "name",
        "code",
        "airport",
        "singer",
        "salary",
        "area",
        "capital",
        "elevation",
        "t_alias",
        "col_1",
        "x",
        "y",
        "z",
    ])
    .prop_map(str::to_string)
}

fn literal_strategy() -> impl Strategy<Value = Literal> {
    prop_oneof![
        any::<i64>().prop_map(Literal::Integer),
        // Finite floats only: NaN breaks equality, infinities don't print.
        any::<f64>()
            .prop_filter("finite", |v| v.is_finite())
            .prop_map(Literal::Float),
        "[a-zA-Z0-9 ']{0,12}".prop_map(Literal::String),
        any::<bool>().prop_map(Literal::Boolean),
        Just(Literal::Null),
    ]
}

fn column_strategy() -> impl Strategy<Value = Expr> {
    (proptest::option::of(ident_strategy()), ident_strategy()).prop_map(|(t, c)| {
        Expr::Column(ColumnRef {
            table: t,
            column: c,
        })
    })
}

fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        column_strategy(),
        literal_strategy().prop_map(Expr::Literal),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            // Binary ops.
            (
                inner.clone(),
                prop::sample::select(vec![
                    BinaryOp::Eq,
                    BinaryOp::NotEq,
                    BinaryOp::Lt,
                    BinaryOp::LtEq,
                    BinaryOp::Gt,
                    BinaryOp::GtEq,
                    BinaryOp::Add,
                    BinaryOp::Sub,
                    BinaryOp::Mul,
                    BinaryOp::Div,
                    BinaryOp::Mod,
                    BinaryOp::And,
                    BinaryOp::Or,
                ]),
                inner.clone()
            )
                .prop_map(|(l, op, r)| Expr::binary(l, op, r)),
            // NOT. (Neg is excluded: the parser folds `-literal` into the
            // literal itself, so arbitrary Neg nodes cannot round-trip.)
            inner.clone().prop_map(|e| Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(e)
            }),
            // Aggregate-looking calls.
            (
                prop::sample::select(vec!["COUNT", "SUM", "AVG", "MIN", "MAX"]),
                any::<bool>(),
                inner.clone()
            )
                .prop_map(|(name, distinct, arg)| Expr::Function {
                    name: name.to_string(),
                    distinct,
                    args: FunctionArgs::Exprs(vec![arg]),
                }),
            Just(Expr::Function {
                name: "COUNT".into(),
                distinct: false,
                args: FunctionArgs::Star,
            }),
            // Predicate suffixes.
            (inner.clone(), any::<bool>()).prop_map(|(e, n)| Expr::IsNull {
                expr: Box::new(e),
                negated: n
            }),
            (
                inner.clone(),
                prop::collection::vec(inner.clone(), 1..3),
                any::<bool>()
            )
                .prop_map(|(e, list, n)| Expr::InList {
                    expr: Box::new(e),
                    list,
                    negated: n
                }),
            (inner.clone(), inner.clone(), inner.clone(), any::<bool>()).prop_map(
                |(e, lo, hi, n)| Expr::Between {
                    expr: Box::new(e),
                    low: Box::new(lo),
                    high: Box::new(hi),
                    negated: n
                }
            ),
            (inner.clone(), "[a-z%_]{1,6}", any::<bool>()).prop_map(|(e, pat, n)| Expr::Like {
                expr: Box::new(e),
                pattern: Box::new(Expr::Literal(Literal::String(pat))),
                negated: n
            }),
        ]
    })
}

fn table_ref_strategy() -> impl Strategy<Value = TableRef> {
    (
        proptest::option::of(prop::sample::select(vec![
            SourceQualifier::Llm,
            SourceQualifier::Db,
        ])),
        ident_strategy(),
        proptest::option::of(ident_strategy()),
    )
        .prop_map(|(source, name, alias)| TableRef {
            source,
            name,
            alias,
        })
}

fn select_strategy() -> impl Strategy<Value = SelectStatement> {
    (
        any::<bool>(),
        prop::collection::vec(
            prop_oneof![
                Just(SelectItem::Wildcard),
                ident_strategy().prop_map(SelectItem::QualifiedWildcard),
                (expr_strategy(), proptest::option::of(ident_strategy()))
                    .prop_map(|(expr, alias)| SelectItem::Expr { expr, alias }),
            ],
            1..4,
        ),
        prop::collection::vec(table_ref_strategy(), 1..3),
        proptest::option::of(expr_strategy()),
        prop::collection::vec(column_strategy(), 0..3),
        proptest::option::of(expr_strategy()),
        prop::collection::vec(
            (expr_strategy(), any::<bool>()).prop_map(|(e, d)| OrderItem {
                expr: e,
                direction: if d {
                    SortDirection::Desc
                } else {
                    SortDirection::Asc
                },
            }),
            0..3,
        ),
        proptest::option::of(0u64..10_000),
        proptest::option::of(0u64..10_000),
    )
        .prop_map(
            |(distinct, items, from, where_clause, group_by, having, order_by, limit, offset)| {
                SelectStatement {
                    distinct,
                    items,
                    from,
                    joins: Vec::new(),
                    where_clause,
                    group_by,
                    having,
                    order_by,
                    limit,
                    // The dialect only accepts OFFSET after LIMIT, and the
                    // printer mirrors that.
                    offset: if limit.is_some() { offset } else { None },
                }
            },
        )
}

/// The expression of `sql`'s first select item.
fn select_item(sql: &str) -> Result<Expr, galois_sql::SqlError> {
    let Statement::Select(stmt) = parse(sql)? else {
        panic!("expected SELECT")
    };
    match &stmt.items[0] {
        SelectItem::Expr { expr, .. } => Ok(expr.clone()),
        other => panic!("unexpected item {other:?}"),
    }
}

/// Both ends of `i64` print and re-parse, alone and as a binary operand —
/// `i64::MIN` too, whose digits alone are no `i64` — while those digits
/// without the sign stay an error.
#[test]
fn i64_extremes_reparse_identically() {
    let x = || {
        Expr::Column(ColumnRef {
            table: None,
            column: "x".into(),
        })
    };
    for v in [i64::MIN, i64::MIN + 1, i64::MAX] {
        let literal = Expr::Literal(Literal::Integer(v));
        for expr in [
            literal.clone(),
            Expr::binary(x(), BinaryOp::Sub, literal.clone()),
            Expr::binary(literal.clone(), BinaryOp::Mul, x()),
        ] {
            let sql = format!("SELECT {expr}");
            assert_eq!(
                select_item(&sql).unwrap_or_else(|e| panic!("{sql}\n{e}")),
                expr
            );
        }
    }
    assert_eq!(
        select_item("SELECT -9223372036854775808").unwrap(),
        Expr::Literal(Literal::Integer(i64::MIN))
    );
    for sql in [
        "SELECT 9223372036854775808",
        "SELECT x - 9223372036854775808",
        "SELECT -18446744073709551616",
    ] {
        assert!(select_item(sql).is_err(), "{sql}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn printed_expr_reparses_identically(expr in expr_strategy()) {
        let sql = format!("SELECT {expr}");
        let reparsed = select_item(&sql).unwrap_or_else(|e| panic!("{sql}\n{e}"));
        prop_assert_eq!(reparsed, expr);
    }

    #[test]
    fn printed_statement_reparses_identically(stmt in select_strategy()) {
        let sql = Statement::Select(stmt.clone()).to_string();
        let Statement::Select(reparsed) = parse(&sql).unwrap_or_else(|e| panic!("{sql}\n{e}")) else {
            panic!("expected SELECT")
        };
        prop_assert_eq!(reparsed, stmt);
    }

    #[test]
    fn printing_is_a_fixed_point(stmt in select_strategy()) {
        let once = Statement::Select(stmt).to_string();
        let Statement::Select(re) = parse(&once).unwrap() else {
            panic!("expected SELECT")
        };
        let twice = Statement::Select(re).to_string();
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn parser_never_panics_on_arbitrary_input(input in "[ -~]{0,80}") {
        let _ = parse(&input);
    }

    #[test]
    fn multibyte_input_errors_on_char_boundaries(input in mixed_sql_strategy()) {
        for error in [tokenize(&input).err(), parse(&input).err()].into_iter().flatten() {
            prop_assert!(
                on_char_boundaries(&input, &error),
                "{input:?}: {error} at {}",
                error.span
            );
        }
    }
}
