//! Resolved scalar expressions and their evaluation.
//!
//! A [`ScalarExpr`] is an AST expression after name resolution: column
//! references carry both their input index (for evaluation) and their
//! binding/name (so the Galois prompt generator can still speak about
//! attributes by name). Evaluation follows SQL three-valued logic.

use crate::error::{EngineError, Result};
use crate::table::Row;
use crate::value::{DataType, Value};
use galois_sql::ast::{BinaryOp, UnaryOp};
use std::borrow::Cow;
use std::fmt;

/// A column reference resolved against an input schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedColumn {
    /// Index into the input row.
    pub index: usize,
    /// Binding (table alias) the column came from, if any.
    pub binding: Option<String>,
    /// Column name.
    pub name: String,
    /// Column type.
    pub data_type: DataType,
}

impl fmt::Display for ResolvedColumn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(b) = &self.binding {
            write!(f, "{b}.")?;
        }
        write!(f, "{}", self.name)
    }
}

/// The row an expression is evaluated against: one slice of values, or a
/// join's match — the left row's slice and the right's, read as their
/// concatenation without building it.
#[derive(Debug, Clone, Copy)]
pub struct RowView<'r> {
    left: &'r [Value],
    right: &'r [Value],
}

impl<'r> RowView<'r> {
    /// A stored or already built row.
    pub fn of(row: &'r [Value]) -> Self {
        Self::pair(row, &[])
    }

    /// A join's match: column `i` is `left[i]`, or `right[i - left.len()]`.
    pub fn pair(left: &'r [Value], right: &'r [Value]) -> Self {
        RowView { left, right }
    }

    /// The value of column `index`, if the row is that wide.
    pub fn get(self, index: usize) -> Option<&'r Value> {
        match index.checked_sub(self.left.len()) {
            None => self.left.get(index),
            Some(i) => self.right.get(i),
        }
    }

    /// The row, built: the left values, then the right's.
    pub fn to_row(self) -> Row {
        [self.left, self.right].concat()
    }
}

/// A resolved, executable scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarExpr {
    /// Input column.
    Column(ResolvedColumn),
    /// Constant.
    Literal(Value),
    /// Unary op.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<ScalarExpr>,
    },
    /// Binary op.
    Binary {
        /// Left operand.
        left: Box<ScalarExpr>,
        /// Operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<ScalarExpr>,
    },
    /// `IS [NOT] NULL`.
    IsNull {
        /// Operand.
        expr: Box<ScalarExpr>,
        /// Negation flag.
        negated: bool,
    },
    /// `[NOT] IN (…)`.
    InList {
        /// Tested expression.
        expr: Box<ScalarExpr>,
        /// Candidates.
        list: Vec<ScalarExpr>,
        /// Negation flag.
        negated: bool,
    },
    /// `[NOT] BETWEEN … AND …`.
    Between {
        /// Tested expression.
        expr: Box<ScalarExpr>,
        /// Lower bound.
        low: Box<ScalarExpr>,
        /// Upper bound.
        high: Box<ScalarExpr>,
        /// Negation flag.
        negated: bool,
    },
    /// `[NOT] LIKE`.
    Like {
        /// Tested expression.
        expr: Box<ScalarExpr>,
        /// Pattern.
        pattern: Box<ScalarExpr>,
        /// Negation flag.
        negated: bool,
    },
}

impl ScalarExpr {
    /// The static result type of this expression.
    pub fn data_type(&self) -> DataType {
        match self {
            ScalarExpr::Column(c) => c.data_type,
            ScalarExpr::Literal(v) => v.data_type().unwrap_or(DataType::Text),
            ScalarExpr::Unary { op, expr } => match op {
                UnaryOp::Neg => expr.data_type(),
                UnaryOp::Not => DataType::Bool,
            },
            ScalarExpr::Binary { left, op, right } => match op {
                BinaryOp::And | BinaryOp::Or => DataType::Bool,
                op if op.is_comparison() => DataType::Bool,
                BinaryOp::Div => DataType::Float,
                _ => {
                    if left.data_type() == DataType::Float || right.data_type() == DataType::Float {
                        DataType::Float
                    } else {
                        left.data_type()
                    }
                }
            },
            ScalarExpr::IsNull { .. }
            | ScalarExpr::InList { .. }
            | ScalarExpr::Between { .. }
            | ScalarExpr::Like { .. } => DataType::Bool,
        }
    }

    /// Walks the tree pre-order.
    pub fn walk(&self, f: &mut impl FnMut(&ScalarExpr)) {
        f(self);
        match self {
            ScalarExpr::Column(_) | ScalarExpr::Literal(_) => {}
            ScalarExpr::Unary { expr, .. } => expr.walk(f),
            ScalarExpr::Binary { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            ScalarExpr::IsNull { expr, .. } => expr.walk(f),
            ScalarExpr::InList { expr, list, .. } => {
                expr.walk(f);
                for e in list {
                    e.walk(f);
                }
            }
            ScalarExpr::Between {
                expr, low, high, ..
            } => {
                expr.walk(f);
                low.walk(f);
                high.walk(f);
            }
            ScalarExpr::Like { expr, pattern, .. } => {
                expr.walk(f);
                pattern.walk(f);
            }
        }
    }

    /// Indices of all referenced input columns.
    pub fn referenced_indices(&self) -> Vec<usize> {
        let mut v = Vec::new();
        self.walk(&mut |e| {
            if let ScalarExpr::Column(c) = e {
                v.push(c.index);
            }
        });
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Rewrites every column index through `map` (used when an input's
    /// column order changes, e.g. below a join).
    pub fn remap_indices(&self, map: &impl Fn(usize) -> usize) -> ScalarExpr {
        self.map_columns(&|c| {
            ScalarExpr::Column(ResolvedColumn {
                index: map(c.index),
                ..c.clone()
            })
        })
    }

    /// Replaces every column reference by `f` of it: an index remap, or the
    /// expression that computes the column one operator below (how the
    /// executor reads through a projection instead of running it).
    pub fn map_columns(&self, f: &impl Fn(&ResolvedColumn) -> ScalarExpr) -> ScalarExpr {
        match self {
            ScalarExpr::Column(c) => f(c),
            ScalarExpr::Literal(v) => ScalarExpr::Literal(v.clone()),
            ScalarExpr::Unary { op, expr } => ScalarExpr::Unary {
                op: *op,
                expr: Box::new(expr.map_columns(f)),
            },
            ScalarExpr::Binary { left, op, right } => ScalarExpr::Binary {
                left: Box::new(left.map_columns(f)),
                op: *op,
                right: Box::new(right.map_columns(f)),
            },
            ScalarExpr::IsNull { expr, negated } => ScalarExpr::IsNull {
                expr: Box::new(expr.map_columns(f)),
                negated: *negated,
            },
            ScalarExpr::InList {
                expr,
                list,
                negated,
            } => ScalarExpr::InList {
                expr: Box::new(expr.map_columns(f)),
                list: list.iter().map(|e| e.map_columns(f)).collect(),
                negated: *negated,
            },
            ScalarExpr::Between {
                expr,
                low,
                high,
                negated,
            } => ScalarExpr::Between {
                expr: Box::new(expr.map_columns(f)),
                low: Box::new(low.map_columns(f)),
                high: Box::new(high.map_columns(f)),
                negated: *negated,
            },
            ScalarExpr::Like {
                expr,
                pattern,
                negated,
            } => ScalarExpr::Like {
                expr: Box::new(expr.map_columns(f)),
                pattern: Box::new(pattern.map_columns(f)),
                negated: *negated,
            },
        }
    }

    /// Evaluates against a row, returning a value (possibly NULL). Operands
    /// are read through [`ScalarExpr::eval_ref`]: comparing a text column
    /// with a literal copies neither.
    pub fn eval(&self, row: RowView<'_>) -> Result<Value> {
        match self {
            ScalarExpr::Column(_) | ScalarExpr::Literal(_) => {
                self.eval_ref(row).map(Cow::into_owned)
            }
            ScalarExpr::Unary { op, expr } => match (op, &*expr.eval_ref(row)?) {
                (_, Value::Null) => Ok(Value::Null),
                (UnaryOp::Neg, Value::Int(i)) => i
                    .checked_neg()
                    .map(Value::Int)
                    .ok_or_else(|| EngineError::Evaluation("integer overflow".into())),
                (UnaryOp::Neg, Value::Float(f)) => Ok(Value::Float(-f)),
                (UnaryOp::Neg, other) => Err(EngineError::TypeMismatch(format!(
                    "cannot negate {}",
                    other.render()
                ))),
                (UnaryOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
                (UnaryOp::Not, other) => Err(EngineError::TypeMismatch(format!(
                    "NOT expects a boolean, got {}",
                    other.render()
                ))),
            },
            ScalarExpr::Binary { left, op, right } => eval_binary(left, *op, right, row),
            ScalarExpr::IsNull { expr, negated } => {
                Ok(Value::Bool(expr.eval_ref(row)?.is_null() != *negated))
            }
            ScalarExpr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval_ref(row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for item in list {
                    match v.sql_eq(&*item.eval_ref(row)?) {
                        Some(true) => return Ok(Value::Bool(!*negated)),
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                if saw_null {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Bool(*negated))
                }
            }
            ScalarExpr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let v = expr.eval_ref(row)?;
                let lo = low.eval_ref(row)?;
                let hi = high.eval_ref(row)?;
                let ge = match v.sql_cmp(&lo) {
                    Some(o) => o != std::cmp::Ordering::Less,
                    None => return Ok(Value::Null),
                };
                let le = match v.sql_cmp(&hi) {
                    Some(o) => o != std::cmp::Ordering::Greater,
                    None => return Ok(Value::Null),
                };
                Ok(Value::Bool((ge && le) != *negated))
            }
            ScalarExpr::Like {
                expr,
                pattern,
                negated,
            } => match (&*expr.eval_ref(row)?, &*pattern.eval_ref(row)?) {
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (Value::Text(s), Value::Text(pat)) => {
                    Ok(Value::Bool(like_match(s, pat) != *negated))
                }
                (a, b) => Err(EngineError::TypeMismatch(format!(
                    "LIKE expects text operands, got {} and {}",
                    a.render(),
                    b.render()
                ))),
            },
        }
    }

    /// [`ScalarExpr::eval`] without the copy when the expression is a
    /// plain column or a literal: the value is borrowed from the row or
    /// from the expression. Everything else is evaluated as usual and
    /// returned owned.
    pub fn eval_ref<'r>(&'r self, row: RowView<'r>) -> Result<Cow<'r, Value>> {
        match self {
            ScalarExpr::Column(c) => row
                .get(c.index)
                .map(Cow::Borrowed)
                .ok_or_else(|| EngineError::Evaluation(format!("row too short for {c}"))),
            ScalarExpr::Literal(v) => Ok(Cow::Borrowed(v)),
            computed => computed.eval(row).map(Cow::Owned),
        }
    }

    /// Evaluates as a predicate: true only if the result is boolean TRUE
    /// (NULL counts as false, per SQL WHERE semantics).
    pub fn eval_predicate(&self, row: RowView<'_>) -> Result<bool> {
        match &*self.eval_ref(row)? {
            Value::Bool(b) => Ok(*b),
            Value::Null => Ok(false),
            other => Err(EngineError::TypeMismatch(format!(
                "predicate evaluated to non-boolean {}",
                other.render()
            ))),
        }
    }
}

fn eval_binary(
    left: &ScalarExpr,
    op: BinaryOp,
    right: &ScalarExpr,
    row: RowView<'_>,
) -> Result<Value> {
    // AND/OR use Kleene logic and must not eagerly error on the other side.
    match op {
        BinaryOp::And => {
            let l = left.eval_ref(row)?;
            if *l == Value::Bool(false) {
                return Ok(Value::Bool(false));
            }
            return kleene_and(&l, &*right.eval_ref(row)?);
        }
        BinaryOp::Or => {
            let l = left.eval_ref(row)?;
            if *l == Value::Bool(true) {
                return Ok(Value::Bool(true));
            }
            return kleene_or(&l, &*right.eval_ref(row)?);
        }
        _ => {}
    }

    let (l, r) = (left.eval_ref(row)?, right.eval_ref(row)?);
    let (l, r) = (&*l, &*r);
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    if op.is_comparison() {
        let ord = l.sql_cmp(r).ok_or_else(|| {
            EngineError::TypeMismatch(format!("cannot compare {} with {}", l.render(), r.render()))
        })?;
        use std::cmp::Ordering::*;
        let b = match op {
            BinaryOp::Eq => ord == Equal,
            BinaryOp::NotEq => ord != Equal,
            BinaryOp::Lt => ord == Less,
            BinaryOp::LtEq => ord != Greater,
            BinaryOp::Gt => ord == Greater,
            BinaryOp::GtEq => ord != Less,
            // `is_comparison` holds for the six operators above only.
            _ => unreachable!(),
        };
        return Ok(Value::Bool(b));
    }

    match op {
        BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul => arith(l, r, op),
        BinaryOp::Div => {
            let (a, b) = both_f64(l, r)?;
            if b == 0.0 {
                Err(EngineError::Evaluation("division by zero".into()))
            } else {
                Ok(Value::Float(a / b))
            }
        }
        BinaryOp::Mod => match (l, r) {
            (Value::Int(a), Value::Int(b)) => {
                if *b == 0 {
                    Err(EngineError::Evaluation("modulo by zero".into()))
                } else {
                    Ok(Value::Int(a.rem_euclid(*b)))
                }
            }
            _ => Err(EngineError::TypeMismatch(
                "% expects integer operands".into(),
            )),
        },
        // AND and OR returned at the top, the comparisons above.
        _ => unreachable!("handled above"),
    }
}

fn kleene_and(l: &Value, r: &Value) -> Result<Value> {
    match (bool3(l)?, bool3(r)?) {
        (Some(false), _) | (_, Some(false)) => Ok(Value::Bool(false)),
        (Some(true), Some(true)) => Ok(Value::Bool(true)),
        _ => Ok(Value::Null),
    }
}

fn kleene_or(l: &Value, r: &Value) -> Result<Value> {
    match (bool3(l)?, bool3(r)?) {
        (Some(true), _) | (_, Some(true)) => Ok(Value::Bool(true)),
        (Some(false), Some(false)) => Ok(Value::Bool(false)),
        _ => Ok(Value::Null),
    }
}

fn bool3(v: &Value) -> Result<Option<bool>> {
    match v {
        Value::Null => Ok(None),
        Value::Bool(b) => Ok(Some(*b)),
        other => Err(EngineError::TypeMismatch(format!(
            "expected boolean, got {}",
            other.render()
        ))),
    }
}

fn both_f64(l: &Value, r: &Value) -> Result<(f64, f64)> {
    match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => Ok((a, b)),
        _ => Err(EngineError::TypeMismatch(format!(
            "arithmetic expects numbers, got {} and {}",
            l.render(),
            r.render()
        ))),
    }
}

fn arith(l: &Value, r: &Value, op: BinaryOp) -> Result<Value> {
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => {
            let res = match op {
                BinaryOp::Add => a.checked_add(*b),
                BinaryOp::Sub => a.checked_sub(*b),
                BinaryOp::Mul => a.checked_mul(*b),
                // `eval_binary` calls `arith` for these three only.
                _ => unreachable!(),
            };
            res.map(Value::Int)
                .ok_or_else(|| EngineError::Evaluation("integer overflow".into()))
        }
        _ => {
            let (a, b) = both_f64(l, r)?;
            let res = match op {
                BinaryOp::Add => a + b,
                BinaryOp::Sub => a - b,
                BinaryOp::Mul => a * b,
                // `eval_binary` calls `arith` for these three only.
                _ => unreachable!(),
            };
            Ok(Value::Float(res))
        }
    }
}

/// SQL `LIKE` matching with `%` (any run) and `_` (single char) wildcards.
/// Case-sensitive, iterative two-pointer algorithm (no backtracking blowup)
/// over the two strings where they lie: positions are byte offsets of
/// characters.
pub fn like_match(s: &str, pattern: &str) -> bool {
    let first = |text: &str, at: usize| text[at..].chars().next();
    let (mut si, mut pi) = (0usize, 0usize);
    // Where the last `%` ends in the pattern, and the text it has absorbed.
    let mut star = None::<(usize, usize)>;
    while let Some(sc) = first(s, si) {
        match (first(pattern, pi), star) {
            // The wildcard is read before the literal arm: a `%` or `_`
            // in the text is an ordinary character.
            (Some('%'), _) => {
                pi += 1;
                star = Some((pi, si));
            }
            (Some(pc), _) if pc == '_' || pc == sc => {
                si += sc.len_utf8();
                pi += pc.len_utf8();
            }
            // Backtrack: let the last % absorb one more character.
            (_, Some((after, absorbed))) => {
                si = absorbed + first(s, absorbed).map_or(0, char::len_utf8);
                (pi, star) = (after, Some((after, si)));
            }
            (_, None) => return false,
        }
    }
    pattern[pi..].bytes().all(|b| b == b'%')
}

impl fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarExpr::Column(c) => write!(f, "{c}"),
            ScalarExpr::Literal(v) => match v {
                Value::Text(s) => write!(f, "'{s}'"),
                other => write!(f, "{}", other.render()),
            },
            ScalarExpr::Unary { op, expr } => match op {
                UnaryOp::Neg => write!(f, "-({expr})"),
                UnaryOp::Not => write!(f, "NOT ({expr})"),
            },
            ScalarExpr::Binary { left, op, right } => write!(f, "({left} {op} {right})"),
            ScalarExpr::IsNull { expr, negated } => {
                write!(f, "({expr} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
            ScalarExpr::InList {
                expr,
                list,
                negated,
            } => {
                write!(f, "({expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "))")
            }
            ScalarExpr::Between {
                expr,
                low,
                high,
                negated,
            } => write!(
                f,
                "({expr} {}BETWEEN {low} AND {high})",
                if *negated { "NOT " } else { "" }
            ),
            ScalarExpr::Like {
                expr,
                pattern,
                negated,
            } => write!(
                f,
                "({expr} {}LIKE {pattern})",
                if *negated { "NOT " } else { "" }
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(i: usize, ty: DataType) -> ScalarExpr {
        ScalarExpr::Column(ResolvedColumn {
            index: i,
            binding: Some("t".into()),
            name: format!("c{i}"),
            data_type: ty,
        })
    }

    fn lit(v: impl Into<Value>) -> ScalarExpr {
        ScalarExpr::Literal(v.into())
    }

    fn bin(l: ScalarExpr, op: BinaryOp, r: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Binary {
            left: Box::new(l),
            op,
            right: Box::new(r),
        }
    }

    #[test]
    fn arithmetic_int_and_float() {
        let row = vec![Value::Int(6), Value::Float(1.5)];
        let e = bin(
            col(0, DataType::Int),
            BinaryOp::Add,
            col(1, DataType::Float),
        );
        assert_eq!(e.eval(RowView::of(&row)).unwrap(), Value::Float(7.5));
        let e = bin(col(0, DataType::Int), BinaryOp::Mul, lit(2i64));
        assert_eq!(e.eval(RowView::of(&row)).unwrap(), Value::Int(12));
    }

    #[test]
    fn division_always_float_and_checks_zero() {
        let row = vec![Value::Int(7), Value::Int(2)];
        let e = bin(col(0, DataType::Int), BinaryOp::Div, col(1, DataType::Int));
        assert_eq!(e.eval(RowView::of(&row)).unwrap(), Value::Float(3.5));
        let z = bin(col(0, DataType::Int), BinaryOp::Div, lit(0i64));
        assert!(z.eval(RowView::of(&row)).is_err());
    }

    #[test]
    fn integer_overflow_is_an_error() {
        let row = vec![Value::Int(i64::MAX)];
        let e = bin(col(0, DataType::Int), BinaryOp::Add, lit(1i64));
        assert!(matches!(
            e.eval(RowView::of(&row)),
            Err(EngineError::Evaluation(_))
        ));
    }

    #[test]
    fn null_propagates_through_arithmetic_and_comparison() {
        let row = vec![Value::Null];
        let e = bin(col(0, DataType::Int), BinaryOp::Add, lit(1i64));
        assert!(e.eval(RowView::of(&row)).unwrap().is_null());
        let c = bin(col(0, DataType::Int), BinaryOp::Eq, lit(1i64));
        assert!(c.eval(RowView::of(&row)).unwrap().is_null());
    }

    #[test]
    fn kleene_logic() {
        let row = vec![Value::Null, Value::Bool(true), Value::Bool(false)];
        let and = |a, b| {
            bin(
                col(a, DataType::Bool),
                BinaryOp::And,
                col(b, DataType::Bool),
            )
        };
        let or = |a, b| bin(col(a, DataType::Bool), BinaryOp::Or, col(b, DataType::Bool));
        // false AND null = false; true AND null = null
        assert_eq!(
            and(2, 0).eval(RowView::of(&row)).unwrap(),
            Value::Bool(false)
        );
        assert!(and(1, 0).eval(RowView::of(&row)).unwrap().is_null());
        // true OR null = true; false OR null = null
        assert_eq!(or(1, 0).eval(RowView::of(&row)).unwrap(), Value::Bool(true));
        assert!(or(2, 0).eval(RowView::of(&row)).unwrap().is_null());
        // null AND false = false (no short-circuit asymmetry)
        assert_eq!(
            and(0, 2).eval(RowView::of(&row)).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn predicate_treats_null_as_false() {
        let row = vec![Value::Null];
        let c = bin(col(0, DataType::Int), BinaryOp::Gt, lit(1i64));
        assert!(!c.eval_predicate(RowView::of(&row)).unwrap());
    }

    #[test]
    fn in_list_three_valued() {
        let row = vec![Value::Int(5), Value::Null];
        let e = ScalarExpr::InList {
            expr: Box::new(col(0, DataType::Int)),
            list: vec![lit(1i64), lit(5i64)],
            negated: false,
        };
        assert_eq!(e.eval(RowView::of(&row)).unwrap(), Value::Bool(true));
        // 5 NOT IN (1, NULL) → NULL (unknown), not true/false
        let e2 = ScalarExpr::InList {
            expr: Box::new(col(0, DataType::Int)),
            list: vec![lit(1i64), col(1, DataType::Int)],
            negated: true,
        };
        assert!(e2.eval(RowView::of(&row)).unwrap().is_null());
    }

    #[test]
    fn between_inclusive() {
        let row = vec![Value::Int(10)];
        let e = ScalarExpr::Between {
            expr: Box::new(col(0, DataType::Int)),
            low: Box::new(lit(10i64)),
            high: Box::new(lit(20i64)),
            negated: false,
        };
        assert_eq!(e.eval(RowView::of(&row)).unwrap(), Value::Bool(true));
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("Rome", "R%"));
        assert!(like_match("Rome", "_ome"));
        assert!(like_match("Rome", "%"));
        assert!(like_match("Rome", "Rome"));
        assert!(!like_match("Rome", "r%")); // case sensitive
        assert!(like_match("abcbc", "a%bc"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("a%b", "a%b"));
        assert!(!like_match("xay", "a%"));
        assert!(like_match("banana", "%na%"));
        // A `%` or `_` in the text is a character like any other.
        assert!(like_match("%x", "%"));
        assert!(like_match("a_b", "a%"));
        assert!(like_match("%", "_"));
    }

    /// `LIKE` by its definition, one character at a time: `%` matches
    /// nothing or one more character, `_` any one, the rest itself.
    fn like_by_definition(s: &[char], p: &[char]) -> bool {
        match (p.split_first(), s.split_first()) {
            (None, _) => s.is_empty(),
            (Some(('%', rest)), None) => like_by_definition(s, rest),
            (Some(('%', rest)), Some((_, tail))) => {
                like_by_definition(s, rest) || like_by_definition(tail, p)
            }
            (Some((pc, rest)), Some((sc, tail))) => {
                (*pc == '_' || pc == sc) && like_by_definition(tail, rest)
            }
            (Some(_), None) => false,
        }
    }

    proptest::proptest! {
        #[test]
        fn like_match_agrees_with_the_definition(
            s in "[ab%_é]{0,8}",
            pattern in "[ab%_é]{0,6}",
        ) {
            let chars = |text: &str| text.chars().collect::<Vec<char>>();
            proptest::prop_assert_eq!(
                like_match(&s, &pattern),
                like_by_definition(&chars(&s), &chars(&pattern))
            );
        }
    }

    #[test]
    fn is_null_never_null() {
        let row = vec![Value::Null, Value::Int(1)];
        let e = ScalarExpr::IsNull {
            expr: Box::new(col(0, DataType::Int)),
            negated: false,
        };
        assert_eq!(e.eval(RowView::of(&row)).unwrap(), Value::Bool(true));
        let e2 = ScalarExpr::IsNull {
            expr: Box::new(col(1, DataType::Int)),
            negated: true,
        };
        assert_eq!(e2.eval(RowView::of(&row)).unwrap(), Value::Bool(true));
    }

    #[test]
    fn remap_indices_rewrites_columns() {
        let e = bin(col(0, DataType::Int), BinaryOp::Add, col(2, DataType::Int));
        let shifted = e.remap_indices(&|i| i + 10);
        assert_eq!(shifted.referenced_indices(), vec![10, 12]);
    }

    #[test]
    fn type_inference() {
        let e = bin(col(0, DataType::Int), BinaryOp::Div, lit(2i64));
        assert_eq!(e.data_type(), DataType::Float);
        let c = bin(col(0, DataType::Int), BinaryOp::Lt, lit(2i64));
        assert_eq!(c.data_type(), DataType::Bool);
    }
}
