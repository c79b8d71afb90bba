//! Parsing LLM answer text (paper §4, workflow step 3: "Convert the string
//! of answers from the LLM to a set of CELL values").
//!
//! Models answer with varying decoration — chatty prefixes, numbered
//! lists, full sentences — so parsing is defensive and never fails: at
//! worst it yields an empty list or an opaque string for the cleaner to
//! reject.

/// The outcome of a list prompt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ListAnswer {
    /// Values extracted from the answer.
    Values(Vec<String>),
    /// The model signalled exhaustion ("No more results").
    Exhausted,
}

/// Parses the answer to a key-listing prompt.
pub fn parse_list_answer(text: &str) -> ListAnswer {
    let t = text.trim();
    let lower = t.to_ascii_lowercase();
    if lower.contains("no more results") || lower == "none" || lower == "unknown" {
        return ListAnswer::Exhausted;
    }
    // Strip a chatty prefix up to the first ':' when one precedes values
    // ("Sure! Here are some values: A, B").
    let body = match t.split_once(':') {
        Some((prefix, rest))
            if prefix.len() < 60 && !prefix.contains(',') && !rest.trim().is_empty() =>
        {
            rest
        }
        _ => t,
    };
    let mut values = Vec::new();
    for line in body.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        // Numbered ("1. Rome") or bulleted ("- Rome") list items.
        let line = strip_list_marker(line);
        for piece in line.split(',') {
            let cleaned = piece
                .trim()
                .trim_end_matches('.')
                .trim_matches(|c: char| c == '"' || c == '\'')
                .trim();
            if !cleaned.is_empty() {
                values.push(cleaned.to_string());
            }
        }
    }
    ListAnswer::Values(values)
}

fn strip_list_marker(line: &str) -> &str {
    let line = line.trim_start_matches(['-', '*', '•']).trim_start();
    // "12. Rome" → "Rome" (but keep "2.8 million" intact: the dot must
    // follow the leading integer and be followed by whitespace).
    let digits: usize = line.chars().take_while(|c| c.is_ascii_digit()).count();
    if digits > 0 {
        let rest = &line[digits..];
        if let Some(stripped) = rest.strip_prefix('.') {
            if stripped.starts_with(' ') {
                return stripped.trim_start();
            }
        }
        if let Some(stripped) = rest.strip_prefix(')') {
            return stripped.trim_start();
        }
    }
    line
}

/// Parses the answer to a single-value (attribute fetch) prompt. Returns
/// `None` for "Unknown"-style answers.
pub fn parse_value_answer(text: &str) -> Option<String> {
    value_span(text).map(str::to_string)
}

/// [`parse_value_answer`] without the copy: the value is a slice of the
/// answer, and the "Unknown"-style forms are matched in place rather than
/// against a lower-cased copy.
pub(crate) fn value_span(text: &str) -> Option<&str> {
    let t = text.trim().trim_end_matches('.').trim();
    if t.is_empty() {
        return None;
    }
    let starts_with = |prefix: &str| {
        t.len() >= prefix.len()
            && t.as_bytes()[..prefix.len()].eq_ignore_ascii_case(prefix.as_bytes())
    };
    if t.eq_ignore_ascii_case("n/a")
        || t.eq_ignore_ascii_case("none")
        || starts_with("i don")
        || starts_with("i'm not sure")
        || starts_with("unknown")
    {
        return None;
    }
    // Unwrap sentence forms: "The population of Rome is 2.8 million".
    // Only an answer that opens like one is searched for its verb.
    if t.starts_with("The ") || t.starts_with("the ") || t.starts_with("Its ") {
        if let Some(idx) = t.rfind(" is ") {
            let tail = t[idx + 4..].trim();
            // `idx >= 4` keeps the opening word out of the match ("The is x").
            if idx >= 4 && !tail.is_empty() {
                return Some(tail);
            }
        }
    }
    Some(t)
}

/// Parses a yes/no answer; `None` when the model answered neither.
pub fn parse_boolean_answer(text: &str) -> Option<bool> {
    let t = text.trim().to_ascii_lowercase();
    if t.starts_with("yes") || t.starts_with("true") || t.starts_with("correct") {
        Some(true)
    } else if t.starts_with("no") || t.starts_with("false") || t.starts_with("incorrect") {
        Some(false)
    } else {
        None
    }
}

/// Extracted records from a QA baseline answer — the mechanised version of
/// the paper's manual post-processing ("we split comma-separated values,
/// remove repeated values and punctuation", §5).
pub fn extract_records(text: &str) -> Vec<Vec<String>> {
    let t = text.trim();
    if t.is_empty() || t.eq_ignore_ascii_case("unknown") || t.eq_ignore_ascii_case("none") {
        return Vec::new();
    }
    // Drop CoT scaffolding: keep only the text after the final "answer
    // is:" marker when present.
    let t = match t.to_ascii_lowercase().rfind("answer is:") {
        Some(idx) => t[idx + "answer is:".len()..].trim(),
        None => t,
    };

    let mut records: Vec<Vec<String>> = Vec::new();
    let mut seen = std::collections::HashSet::new();

    let lines: Vec<&str> = t.lines().map(str::trim).filter(|l| !l.is_empty()).collect();
    // A line is a record ("- Rome: 2,800,000") rather than prose when it
    // has a `key: cells` shape and either carries a list marker or sits in
    // a multi-line answer.
    let is_record_line = |l: &str| {
        strip_list_marker(l).contains(": ")
            && (lines.len() > 1
                || l.starts_with(['-', '*', '•'])
                || l.starts_with(|c: char| c.is_ascii_digit()))
    };
    let line_records = lines.iter().filter(|l| is_record_line(l)).count();

    if line_records >= 1 && line_records * 2 >= lines.len() {
        // Row-per-line form: "- Rome: 2,800,000, Italy".
        for line in lines {
            let line = strip_list_marker(line);
            let Some((head, rest)) = line.split_once(": ") else {
                continue;
            };
            let mut rec = vec![clean_token(head)];
            for cell in split_cells(rest) {
                let c = clean_token(&cell);
                if !c.is_empty() {
                    rec.push(c);
                }
            }
            if seen.insert(rec.clone()) {
                records.push(rec);
            }
        }
    } else {
        // Flat list form: "The name values are: Rome, Paris, Milan."
        let body = match t.split_once(':') {
            Some((prefix, rest)) if prefix.len() < 60 && !rest.trim().is_empty() => rest,
            _ => t,
        };
        for piece in body.split(',') {
            let c = clean_token(piece);
            if !c.is_empty() && seen.insert(vec![c.clone()]) {
                records.push(vec![c]);
            }
        }
    }
    records
}

/// Splits a cell list on commas, re-joining thousands groups: `"2,800,000,
/// Italy"` → `["2,800,000", "Italy"]`.
fn split_cells(s: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for piece in s.split(',') {
        let trimmed = piece.trim();
        let is_thousands_group = trimmed.len() == 3
            && trimmed.chars().all(|c| c.is_ascii_digit())
            && piece.starts_with(|c: char| c.is_ascii_digit());
        if is_thousands_group {
            if let Some(prev) = out.last_mut() {
                if prev.ends_with(|c: char| c.is_ascii_digit()) {
                    prev.push(',');
                    prev.push_str(trimmed);
                    continue;
                }
            }
        }
        out.push(trimmed.to_string());
    }
    out
}

fn clean_token(s: &str) -> String {
    s.trim()
        .trim_end_matches('.')
        .trim_matches(|c: char| c == '"' || c == '\'' || c == '(' || c == ')')
        .trim()
        .to_string()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// [`parse_value_answer`] as it was before [`value_span`]: the
    /// reference the equivalence properties compare against.
    pub(crate) fn reference_parse_value_answer(text: &str) -> Option<String> {
        let t = text.trim().trim_end_matches('.').trim();
        if t.is_empty() {
            return None;
        }
        let lower = t.to_ascii_lowercase();
        if lower == "unknown"
            || lower == "n/a"
            || lower == "none"
            || lower.starts_with("i don")
            || lower.starts_with("i'm not sure")
            || lower.starts_with("unknown")
        {
            return None;
        }
        if let Some(idx) = t.rfind(" is ") {
            let head = &t[..idx];
            if head.starts_with("The ") || head.starts_with("the ") || head.starts_with("Its ") {
                let tail = t[idx + 4..].trim();
                if !tail.is_empty() {
                    return Some(tail.to_string());
                }
            }
        }
        Some(t.to_string())
    }

    #[test]
    fn plain_comma_list() {
        assert_eq!(
            parse_list_answer("Rome, Paris, Milan."),
            ListAnswer::Values(vec!["Rome".into(), "Paris".into(), "Milan".into()])
        );
    }

    #[test]
    fn chatty_prefix_is_stripped() {
        assert_eq!(
            parse_list_answer("Sure! Here are some values: Rome, Paris."),
            ListAnswer::Values(vec!["Rome".into(), "Paris".into()])
        );
    }

    #[test]
    fn numbered_list() {
        assert_eq!(
            parse_list_answer("1. Rome\n2. Paris\n3. New Milan"),
            ListAnswer::Values(vec!["Rome".into(), "Paris".into(), "New Milan".into()])
        );
    }

    #[test]
    fn exhaustion_detected() {
        assert_eq!(parse_list_answer("No more results"), ListAnswer::Exhausted);
        assert_eq!(parse_list_answer("no more results."), ListAnswer::Exhausted);
        assert_eq!(parse_list_answer("Unknown"), ListAnswer::Exhausted);
    }

    #[test]
    fn empty_answer_is_empty_values() {
        assert_eq!(parse_list_answer("  "), ListAnswer::Values(vec![]));
    }

    #[test]
    fn value_answer_unwraps_sentences() {
        assert_eq!(
            parse_value_answer("The population of Rome is about 2.8 million."),
            Some("about 2.8 million".into())
        );
        assert_eq!(parse_value_answer("2800000"), Some("2800000".into()));
        assert_eq!(parse_value_answer("Unknown."), None);
        assert_eq!(parse_value_answer(""), None);
    }

    #[test]
    fn value_answer_keeps_is_in_names() {
        // "is" inside a value must not trigger sentence unwrapping unless
        // the sentence shape matches.
        assert_eq!(parse_value_answer("Isla Verde"), Some("Isla Verde".into()));
    }

    #[test]
    fn boolean_answers() {
        assert_eq!(parse_boolean_answer("Yes"), Some(true));
        assert_eq!(parse_boolean_answer("yes, it is."), Some(true));
        assert_eq!(parse_boolean_answer("No."), Some(false));
        assert_eq!(parse_boolean_answer("perhaps"), None);
    }

    #[test]
    fn extract_flat_records() {
        let recs = extract_records("The name values are: Rome, Paris, Rome.");
        assert_eq!(
            recs,
            vec![vec!["Rome".to_string()], vec!["Paris".to_string()]]
        );
    }

    #[test]
    fn extract_line_records() {
        let recs = extract_records("- Rome: 2,800,000\n- Paris: 2,100,000");
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0], vec!["Rome".to_string(), "2,800,000".to_string()]);
    }

    #[test]
    fn extract_mixed_cells() {
        let recs = extract_records("- Rome: 2,800,000, Italy");
        assert_eq!(
            recs[0],
            vec![
                "Rome".to_string(),
                "2,800,000".to_string(),
                "Italy".to_string()
            ]
        );
    }

    #[test]
    fn extract_cot_answer_tail() {
        let recs = extract_records(
            "Step 1: think.\nStep 2: more thinking.\nThe answer is: Paris, Berlin.",
        );
        assert_eq!(
            recs,
            vec![vec!["Paris".to_string()], vec!["Berlin".to_string()]]
        );
    }

    #[test]
    fn extract_unknown_is_empty() {
        assert!(extract_records("Unknown").is_empty());
        assert!(extract_records("").is_empty());
    }
}
