//! Natural-language question protocol for the QA baselines.
//!
//! The paper compares Galois against asking the *same information need* as
//! a natural-language question `t` (result `T_M`), optionally with a
//! chain-of-thought prompt (`T_C_M`). Spider supplies those paraphrases;
//! our dataset substitute generates them from a [`QueryIntent`] using the
//! templates here, and the simulated LLM recovers the intent from the text
//! using the inverse parser, also here. Keeping both directions in one
//! module (with round-trip tests) is what keeps the "NL interface"
//! honest — only text crosses it.

use crate::intent::Condition;
use std::fmt;

/// Aggregate kinds in question templates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggKind {
    /// `How many … exist?`
    Count,
    /// `the total …`
    Sum,
    /// `the average …`
    Avg,
    /// `the minimum …`
    Min,
    /// `the maximum …`
    Max,
}

impl AggKind {
    /// The English noun used in templates.
    pub(crate) fn word(&self) -> &'static str {
        match self {
            AggKind::Count => "number",
            AggKind::Sum => "total",
            AggKind::Avg => "average",
            AggKind::Min => "minimum",
            AggKind::Max => "maximum",
        }
    }

    /// Parses the English noun.
    pub(crate) fn from_word(w: &str) -> Option<AggKind> {
        Some(match w {
            "number" => AggKind::Count,
            "total" => AggKind::Sum,
            "average" => AggKind::Avg,
            "minimum" => AggKind::Min,
            "maximum" => AggKind::Max,
            _ => return None,
        })
    }
}

/// A one-hop join in a question: follow `via_attribute` of the primary
/// relation to a related entity and report its `related_attribute`.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinIntent {
    /// Attribute of the primary relation whose value is the related entity
    /// (e.g. `mayor` on `city`).
    pub via_attribute: String,
    /// Attribute of the related entity to report (e.g. `birthDate`).
    pub related_attribute: String,
}

/// An aggregate request in a question.
#[derive(Debug, Clone, PartialEq)]
pub struct AggIntent {
    /// Aggregate kind.
    pub kind: AggKind,
    /// Aggregated attribute (`None` for COUNT over entries).
    pub attribute: Option<String>,
    /// Optional group-by attribute.
    pub group_by: Option<String>,
}

/// The information need behind an evaluation query, in the vocabulary of
/// the NL templates.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryIntent {
    /// Primary relation (entity type).
    pub relation: String,
    /// Attributes of the primary relation to report (ignored when
    /// `aggregate` is set).
    pub select: Vec<String>,
    /// Optional filter.
    pub condition: Option<Condition>,
    /// Optional one-hop join.
    pub join: Option<JoinIntent>,
    /// Optional aggregate.
    pub aggregate: Option<AggIntent>,
}

impl fmt::Display for QueryIntent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", render_question(self))
    }
}

fn render_attr_list(attrs: &[String]) -> String {
    match attrs.len() {
        0 => String::new(),
        1 => attrs[0].clone(),
        n => format!("{} and {}", attrs[..n - 1].join(", "), attrs[n - 1]),
    }
}

fn parse_attr_list(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let (head, last) = match text.rsplit_once(" and ") {
        Some((h, l)) => (h, Some(l)),
        None => (text, None),
    };
    for part in head.split(", ") {
        let p = part.trim();
        if !p.is_empty() {
            out.push(p.to_string());
        }
    }
    if let Some(l) = last {
        out.push(l.trim().to_string());
    }
    out
}

/// Renders the NL question for a [`QueryIntent`] (the paper's paraphrase
/// `t`).
pub fn render_question(q: &QueryIntent) -> String {
    let cond = q
        .condition
        .as_ref()
        .map(|c| format!(" whose {}", c.render()))
        .unwrap_or_default();
    match (&q.aggregate, &q.join) {
        (Some(agg), _) => match (&agg.group_by, agg.kind, &agg.attribute) {
            (None, AggKind::Count, _) => {
                format!("How many {} entries exist{cond}?", q.relation)
            }
            (None, kind, Some(attr)) => format!(
                "What is the {} {attr} of every {}{cond}?",
                kind.word(),
                q.relation
            ),
            (Some(group), AggKind::Count, _) => format!(
                "For each {group}, how many {} entries exist{cond}?",
                q.relation
            ),
            (Some(group), kind, Some(attr)) => format!(
                "For each {group}, what is the {} {attr} of every {}{cond}?",
                kind.word(),
                q.relation
            ),
            // COUNT is the only aggregate without an attribute.
            (_, _, None) => format!("How many {} entries exist{cond}?", q.relation),
        },
        (None, Some(join)) => format!(
            "List the {} of every {}{cond} together with the {} of its {}.",
            render_attr_list(&q.select),
            q.relation,
            join.related_attribute,
            join.via_attribute
        ),
        (None, None) => format!(
            "List the {} of every {}{cond}.",
            render_attr_list(&q.select),
            q.relation
        ),
    }
}

/// Parses an NL question back into a [`QueryIntent`]; the inverse of
/// [`render_question`].
pub fn parse_question(text: &str) -> Option<QueryIntent> {
    let t = text.trim();
    parse_count(t)
        .or_else(|| parse_agg(t))
        .or_else(|| parse_list(t))
}

/// Splits a trailing ` whose <condition>` from a phrase.
fn split_condition(body: &str) -> Option<(String, Option<Condition>)> {
    match body.split_once(" whose ") {
        Some((rel, cond)) => {
            let c = Condition::parse(cond)?;
            Some((rel.trim().to_string(), Some(c)))
        }
        None => Some((body.trim().to_string(), None)),
    }
}

fn parse_count(t: &str) -> Option<QueryIntent> {
    let (group_by, rest) = match t.strip_prefix("For each ") {
        Some(r) => {
            let (g, r) = r.split_once(", how many ")?;
            (Some(g.trim().to_string()), r)
        }
        None => (None, t.strip_prefix("How many ")?),
    };
    let body = rest.strip_suffix('?')?;
    let body = body
        .strip_suffix(" entries exist")
        .map(str::to_string)
        .or_else(|| {
            // Condition follows "exist".
            let (head, cond) = body.split_once(" entries exist whose ")?;
            Some(format!("{head} whose {cond}"))
        })?;
    let (relation, condition) = split_condition(&body)?;
    Some(QueryIntent {
        relation,
        select: vec![],
        condition,
        join: None,
        aggregate: Some(AggIntent {
            kind: AggKind::Count,
            attribute: None,
            group_by,
        }),
    })
}

fn parse_agg(t: &str) -> Option<QueryIntent> {
    let (group_by, rest) = match t.strip_prefix("For each ") {
        Some(r) => {
            let (g, r) = r.split_once(", what is the ")?;
            (Some(g.trim().to_string()), r)
        }
        None => (None, t.strip_prefix("What is the ")?),
    };
    let rest = rest.strip_suffix('?')?;
    let (agg_word, rest) = rest.split_once(' ')?;
    let kind = AggKind::from_word(agg_word)?;
    let (attr, body) = rest.split_once(" of every ")?;
    let (relation, condition) = split_condition(body)?;
    Some(QueryIntent {
        relation,
        select: vec![],
        condition,
        join: None,
        aggregate: Some(AggIntent {
            kind,
            attribute: Some(attr.trim().to_string()),
            group_by,
        }),
    })
}

fn parse_list(t: &str) -> Option<QueryIntent> {
    let rest = t.strip_prefix("List the ")?;
    let rest = rest.strip_suffix('.')?;
    let (attrs, body) = rest.split_once(" of every ")?;
    let (body, join) = match body.split_once(" together with the ") {
        Some((b, j)) => {
            let (related_attribute, via) = j.split_once(" of its ")?;
            (
                b,
                Some(JoinIntent {
                    via_attribute: via.trim().to_string(),
                    related_attribute: related_attribute.trim().to_string(),
                }),
            )
        }
        None => (body, None),
    };
    let (relation, condition) = split_condition(body)?;
    let select = parse_attr_list(attrs);
    if select.is_empty() {
        return None;
    }
    Some(QueryIntent {
        relation,
        select,
        condition,
        join,
        aggregate: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intent::{CmpOp, PromptValue};

    fn cond_gt(attr: &str, n: f64) -> Condition {
        Condition {
            attribute: attr.into(),
            op: CmpOp::Gt,
            values: vec![PromptValue::Number(n)],
        }
    }

    fn roundtrip(q: QueryIntent) {
        let text = render_question(&q);
        let parsed = parse_question(&text).unwrap_or_else(|| panic!("parse failed: {text}"));
        assert_eq!(parsed, q, "{text}");
    }

    #[test]
    fn list_roundtrip() {
        roundtrip(QueryIntent {
            relation: "city".into(),
            select: vec!["name".into()],
            condition: Some(cond_gt("population", 1e6)),
            join: None,
            aggregate: None,
        });
    }

    #[test]
    fn multi_attr_list_roundtrip() {
        roundtrip(QueryIntent {
            relation: "country".into(),
            select: vec!["name".into(), "capital".into(), "gdp".into()],
            condition: None,
            join: None,
            aggregate: None,
        });
    }

    #[test]
    fn join_roundtrip() {
        roundtrip(QueryIntent {
            relation: "city".into(),
            select: vec!["name".into()],
            condition: Some(cond_gt("population", 5e5)),
            join: Some(JoinIntent {
                via_attribute: "mayor".into(),
                related_attribute: "birthDate".into(),
            }),
            aggregate: None,
        });
    }

    #[test]
    fn count_roundtrip() {
        roundtrip(QueryIntent {
            relation: "airport".into(),
            select: vec![],
            condition: Some(cond_gt("elevation", 1000.0)),
            join: None,
            aggregate: Some(AggIntent {
                kind: AggKind::Count,
                attribute: None,
                group_by: None,
            }),
        });
        roundtrip(QueryIntent {
            relation: "airport".into(),
            select: vec![],
            condition: None,
            join: None,
            aggregate: Some(AggIntent {
                kind: AggKind::Count,
                attribute: None,
                group_by: None,
            }),
        });
    }

    #[test]
    fn avg_roundtrip() {
        roundtrip(QueryIntent {
            relation: "city".into(),
            select: vec![],
            condition: None,
            join: None,
            aggregate: Some(AggIntent {
                kind: AggKind::Avg,
                attribute: Some("population".into()),
                group_by: None,
            }),
        });
    }

    #[test]
    fn group_by_roundtrips() {
        roundtrip(QueryIntent {
            relation: "city".into(),
            select: vec![],
            condition: None,
            join: None,
            aggregate: Some(AggIntent {
                kind: AggKind::Count,
                attribute: None,
                group_by: Some("country".into()),
            }),
        });
        roundtrip(QueryIntent {
            relation: "city".into(),
            select: vec![],
            condition: Some(cond_gt("population", 1000.0)),
            join: None,
            aggregate: Some(AggIntent {
                kind: AggKind::Max,
                attribute: Some("population".into()),
                group_by: Some("country".into()),
            }),
        });
    }

    #[test]
    fn rendered_questions_read_naturally() {
        let q = QueryIntent {
            relation: "city".into(),
            select: vec!["name".into()],
            condition: Some(cond_gt("population", 1e6)),
            join: None,
            aggregate: None,
        };
        assert_eq!(
            render_question(&q),
            "List the name of every city whose population is greater than 1000000."
        );
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(parse_question("Tell me about Rome").is_none());
        assert!(parse_question("").is_none());
        assert!(parse_question("List the . of every ?").is_none());
    }
}
