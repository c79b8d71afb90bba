//! Property tests on the prompt protocol: rendering and parsing must be
//! exact inverses for arbitrary well-formed intents, and the parsers must
//! be total on arbitrary text.

use galois_llm::intent::{
    parse_task, parse_task_outcome, render_task, split_batched_answer, split_grid_answer, CmpOp,
    Condition, ParseOutcome, PromptValue, TaskIntent,
};
use galois_llm::nlq::{
    parse_question, render_question, AggIntent, AggKind, JoinIntent, QueryIntent,
};
use proptest::prelude::*;

/// Identifier-ish words safe inside the templates (no protocol markers).
fn word() -> impl Strategy<Value = String> {
    "[a-zA-Z][a-zA-Z0-9]{0,10}".prop_filter("no reserved words", |s| {
        // Words that collide with template scaffolding.
        let lower = s.to_ascii_lowercase();
        !["is", "of", "every", "whose", "and", "its", "the", "exist"].contains(&lower.as_str())
    })
}

/// Batch keys: arbitrary-ish surface strings *including* `:`/`,`/`-` and
/// even a mid-line `Q: ` (the question marker is line-anchored, so key
/// content cannot hijack it), excluding only surrounding whitespace —
/// keys are normalised before batching.
fn batch_key() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-zA-Z0-9][a-zA-Z0-9 :,.-]{0,13}",
        "[a-zA-Z0-9]{0,4}Q: [a-zA-Z0-9]{1,6}",
    ]
    .prop_filter("trimmed", |s| s.trim() == s)
}

fn prompt_value() -> impl Strategy<Value = PromptValue> {
    prop_oneof![
        "[a-zA-Z0-9 ]{1,12}"
            .prop_map(|s| PromptValue::Text(s.trim().to_string()))
            .prop_filter("non-empty after trim", |v| match v {
                PromptValue::Text(s) => !s.is_empty() && s.parse::<f64>().is_err(),
                _ => true,
            }),
        (-1_000_000_000i64..1_000_000_000).prop_map(|n| PromptValue::Number(n as f64)),
    ]
}

fn condition() -> impl Strategy<Value = Condition> {
    (word(), prompt_value(), prompt_value(), 0u8..9).prop_map(|(attr, v1, v2, op)| {
        let (op, values) = match op {
            0 => (CmpOp::Eq, vec![v1]),
            1 => (CmpOp::NotEq, vec![v1]),
            2 => (CmpOp::Gt, vec![v1]),
            3 => (CmpOp::GtEq, vec![v1]),
            4 => (CmpOp::Lt, vec![v1]),
            5 => (CmpOp::LtEq, vec![v1]),
            6 => (CmpOp::Between, vec![v1, v2]),
            7 => (CmpOp::In, vec![v1, v2]),
            _ => (CmpOp::IsNull, vec![]),
        };
        Condition {
            attribute: attr,
            op,
            values,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn task_intents_roundtrip(
        relation in word(),
        key_attr in word(),
        key in "[a-zA-Z][a-zA-Z0-9 ]{0,14}",
        attribute in word(),
        cond in condition(),
        exclude in prop::collection::vec("[a-zA-Z][a-zA-Z0-9 ]{0,10}", 0..4),
        which in 0u8..3,
    ) {
        let key = key.trim().to_string();
        prop_assume!(!key.is_empty());
        let exclude: Vec<String> = exclude
            .iter()
            .map(|e| e.trim().to_string())
            .filter(|e| !e.is_empty())
            .collect();
        let task = match which {
            0 => TaskIntent::ListKeys {
                relation,
                key_attr,
                condition: Some(cond),
                exclude: exclude.into(),
            },
            1 => TaskIntent::FetchAttr {
                relation,
                key_attr,
                key,
                attribute,
            },
            _ => TaskIntent::CheckFilter {
                relation,
                key_attr,
                key,
                condition: cond,
            },
        };
        let rendered = render_task(&task);
        prop_assert_eq!(parse_task(&rendered), Some(task), "{}", rendered);
    }

    #[test]
    fn questions_roundtrip(
        relation in word(),
        attrs in prop::collection::vec(word(), 1..3),
        cond in proptest::option::of(condition()),
        shape in 0u8..4,
        agg_attr in word(),
        group in word(),
        via in word(),
        related in word(),
    ) {
        let q = match shape {
            0 => QueryIntent {
                relation,
                select: attrs,
                condition: cond,
                join: None,
                aggregate: None,
            },
            1 => QueryIntent {
                relation,
                select: attrs,
                condition: cond,
                join: Some(JoinIntent {
                    via_attribute: via,
                    related_attribute: related,
                }),
                aggregate: None,
            },
            2 => QueryIntent {
                relation,
                select: vec![],
                condition: cond,
                join: None,
                aggregate: Some(AggIntent {
                    kind: AggKind::Count,
                    attribute: None,
                    group_by: if group.len().is_multiple_of(2) { Some(group) } else { None },
                }),
            },
            _ => QueryIntent {
                relation,
                select: vec![],
                condition: cond,
                join: None,
                aggregate: Some(AggIntent {
                    kind: AggKind::Avg,
                    attribute: Some(agg_attr),
                    group_by: if group.len().is_multiple_of(2) { Some(group) } else { None },
                }),
            },
        };
        let rendered = render_question(&q);
        prop_assert_eq!(parse_question(&rendered), Some(q), "{}", rendered);
    }

    /// Every batched intent round-trips: arbitrary key sets, including
    /// keys containing `:` and commas, survive render → parse exactly.
    #[test]
    fn batched_task_intents_roundtrip(
        relation in word(),
        key_attr in word(),
        attribute in word(),
        cond in condition(),
        keys in prop::collection::vec(batch_key(), 1..12),
        which in 0u8..2,
    ) {
        let task = match which {
            0 => TaskIntent::FetchAttrBatch {
                relation,
                key_attr,
                keys,
                attribute,
            },
            _ => TaskIntent::FilterKeysBatch {
                relation,
                key_attr,
                keys,
                condition: cond,
            },
        };
        let rendered = render_task(&task);
        prop_assert_eq!(parse_task(&rendered), Some(task), "{}", rendered);
    }

    /// A full `key: payload` answer block in key order splits back into
    /// exactly the payloads — even for keys containing `:`, where a naive
    /// first-colon split would misparse. (In key order, key *i* always
    /// consumes line *i*: lines 0..i are already consumed by induction and
    /// line *i* carries key *i*'s prefix by construction. Payloads here
    /// are colon-free so no `"{key}: {payload}"` line can collide with a
    /// longer key of the batch — with such collisions the splitter
    /// deliberately prefers `None`/longest-key over guessing.)
    #[test]
    fn batched_answers_split_exactly(
        keys in prop::collection::vec(batch_key(), 1..10),
        payloads in prop::collection::vec(
            "[a-zA-Z0-9][a-zA-Z0-9 .]{0,10}".prop_filter("trimmed", |p| p.trim() == p),
            1..10,
        ),
    ) {
        let n = keys.len().min(payloads.len());
        let (keys, payloads) = (&keys[..n], &payloads[..n]);
        let answer: String = keys
            .iter()
            .zip(payloads)
            .map(|(k, p)| format!("{k}: {p}"))
            .collect::<Vec<_>>()
            .join("\n");
        let split = split_batched_answer(&answer, keys);
        for (i, payload) in payloads.iter().enumerate() {
            prop_assert_eq!(split[i], Some(payload.as_str()),
                "key {:?} in\n{}", &keys[i], answer);
        }
    }

    #[test]
    fn parsers_are_total(input in "[ -~]{0,120}") {
        let _ = parse_task(&input);
        let _ = parse_task_outcome(&input);
        let _ = parse_question(&input);
        let _ = Condition::parse(&input);
        let _ = PromptValue::parse(&input);
    }

    /// Fault-injection hardening: a batched answer block with garbage
    /// lines interleaved between the real `key: value` lines must yield
    /// *exactly* the planted payload for every planted key, `None` for
    /// every unplanted key, and never a silently-wrong cell. Keys are
    /// uppercase-only and garbage lines never start with an uppercase
    /// letter, so no garbage line can own a key's prefix by construction.
    #[test]
    fn split_batched_answer_survives_interleaved_garbage(
        keys in prop::collection::vec("[A-Z]{1,8}", 1..8),
        garbage in prop::collection::vec("[a-z0-9 !#%&*+=?@~:.,-]{0,40}", 0..8),
        mask in any::<u32>(),
    ) {
        let mut keys = keys;
        keys.sort();
        keys.dedup();
        // Plant a payload for the keys selected by the mask bits.
        let planted: Vec<Option<String>> = keys
            .iter()
            .enumerate()
            .map(|(i, _)| (mask >> (i % 32)) & 1 == 1)
            .enumerate()
            .map(|(i, on)| on.then(|| format!("v{i}")))
            .collect();
        let mut lines: Vec<String> = Vec::new();
        let mut garbage_iter = garbage.iter();
        for (key, payload) in keys.iter().zip(&planted) {
            if let Some(g) = garbage_iter.next() {
                lines.push(g.clone());
            }
            if let Some(p) = payload {
                lines.push(format!("{key}: {p}"));
            }
        }
        lines.extend(garbage_iter.cloned());
        let answer = lines.join("\n");
        let split = split_batched_answer(&answer, &keys);
        for (i, expected) in planted.iter().enumerate() {
            prop_assert_eq!(split[i], expected.as_deref(), "key {:?} in\n{}", &keys[i], answer);
        }
    }

    /// Same hardening for the grid splitter: garbage lines between real
    /// `key ⌁ attr: value` lines never corrupt a planted cell, and every
    /// unplanted cell stays `None` (→ fallback re-ask), never a guess.
    #[test]
    fn split_grid_answer_survives_interleaved_garbage(
        keys in prop::collection::vec("[A-Z]{1,6}", 1..5),
        attrs in prop::collection::vec("[a-z]{1,6}", 1..4),
        garbage in prop::collection::vec("[a-z0-9 !#%&*+=?@~:.,-]{0,40}", 0..8),
        mask in any::<u32>(),
    ) {
        let mut keys = keys;
        keys.sort();
        keys.dedup();
        let mut attrs = attrs;
        attrs.sort();
        attrs.dedup();
        let mut lines: Vec<String> = Vec::new();
        let mut garbage_iter = garbage.iter();
        let mut planted: Vec<Vec<Option<String>>> = Vec::new();
        for (ki, key) in keys.iter().enumerate() {
            let mut row = Vec::new();
            for (ai, attr) in attrs.iter().enumerate() {
                let bit = (ki * attrs.len() + ai) % 32;
                let cell = ((mask >> bit) & 1 == 1).then(|| format!("p{ki}x{ai}"));
                if let Some(g) = garbage_iter.next() {
                    lines.push(g.clone());
                }
                if let Some(p) = &cell {
                    lines.push(format!("{key} \u{2301} {attr}: {p}"));
                }
                row.push(cell);
            }
            planted.push(row);
        }
        lines.extend(garbage_iter.cloned());
        let answer = lines.join("\n");
        let split = split_grid_answer(&answer, &keys, &attrs);
        for (ki, row) in planted.iter().enumerate() {
            for (ai, expected) in row.iter().enumerate() {
                prop_assert_eq!(
                    split[ki * attrs.len() + ai], expected.as_deref(),
                    "cell {:?} × {:?} in\n{}", &keys[ki], &attrs[ai], answer
                );
            }
        }
    }

    /// The splitters are total on arbitrary noise — printable bytes,
    /// embedded newlines, stray grid separators, and a pathologically
    /// long line — and degrade to `None` cells rather than panicking.
    #[test]
    fn splitters_are_total_on_noise(
        noise in "[ -~\u{2301}\n]{0,160}",
        keys in prop::collection::vec("[A-Za-z0-9 :,.\u{2301}-]{0,12}", 0..6),
        attrs in prop::collection::vec("[a-z]{1,8}", 0..4),
        repeat in 1usize..60_000,
    ) {
        let huge = format!("{noise}{}", "x".repeat(repeat));
        for answer in [noise.as_str(), huge.as_str()] {
            let b = split_batched_answer(answer, &keys);
            prop_assert_eq!(b.len(), keys.len());
            let g = split_grid_answer(answer, &keys, &attrs);
            prop_assert_eq!(g.len(), keys.len() * attrs.len());
        }
        // The task parser is likewise total on the same noise.
        let _ = parse_task_outcome(&huge);
    }

    /// A well-formed operator prompt whose tail was truncated mid-body is
    /// classified `Malformed` (an operator marker with a garbled body),
    /// never `Parsed` with wrong contents and never a panic.
    #[test]
    fn truncated_operator_prompts_classify_as_malformed(
        relation in word(),
        key_attr in word(),
        keys in prop::collection::vec(batch_key(), 1..6),
        attribute in word(),
        cut_permille in 0usize..1000,
    ) {
        let task = TaskIntent::FetchAttrBatch {
            relation,
            key_attr,
            keys,
            attribute,
        };
        let rendered = render_task(&task);
        let mut cut = rendered.len() * cut_permille / 1000;
        while !rendered.is_char_boundary(cut) {
            cut -= 1;
        }
        let truncated = &rendered[..cut];
        match parse_task_outcome(truncated) {
            // Very short prefixes lose the marker entirely; prefixes that
            // keep the whole body still parse. Neither may misdecode: a
            // parse must re-render to exactly the text it was handed
            // (modulo the surrounding whitespace the parser trims).
            ParseOutcome::Parsed(t) => {
                let re_rendered = render_task(&t);
                prop_assert_eq!(re_rendered.as_str(), truncated.trim_end());
            }
            ParseOutcome::Malformed(_) | ParseOutcome::Unrecognized => {}
        }
    }
}
