//! The prompt protocol: intents, their natural-language rendering, and the
//! simulator-side parsing.
//!
//! Galois compiles plan operators into *text* prompts (paper §4, Figure 4);
//! the simulated LLM receives that text and must recover the task the same
//! way a real LLM infers it from wording. This module defines both
//! directions:
//!
//! * `render_*` — the canonical English templates ("Has *relationName
//!   keyName attributeName operator value*?" in the paper's notation),
//!   used by the prompt generator and by the dataset's NL paraphrases;
//! * `parse_*` — pattern matching used by [`crate::simllm::SimLlm`].
//!
//! Round-tripping (`parse(render(x)) == x`) is property-tested; the pair is
//! kept in one module precisely so the "protocol" cannot silently fork.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Comparison operators usable in prompt conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// equal to
    Eq,
    /// different from
    NotEq,
    /// greater than
    Gt,
    /// at least
    GtEq,
    /// less than
    Lt,
    /// at most
    LtEq,
    /// between a and b (inclusive)
    Between,
    /// one of a fixed list
    In,
    /// matches a `%`/`_` pattern
    Like,
    /// value is unknown/missing
    IsNull,
    /// value is known/present
    IsNotNull,
}

/// A value as it appears in prompt text: quoted text or a bare token.
#[derive(Debug, Clone, PartialEq)]
pub enum PromptValue {
    /// A quoted string (`'Rome'`).
    Text(String),
    /// A bare numeric token (`1000000` / `2.5`).
    Number(f64),
}

impl PromptValue {
    /// Parses a rendered value token.
    pub fn parse(token: &str) -> Option<PromptValue> {
        let t = token.trim();
        if let Some(stripped) = t.strip_prefix('\'').and_then(|s| s.strip_suffix('\'')) {
            return Some(PromptValue::Text(stripped.to_string()));
        }
        t.parse::<f64>().ok().map(PromptValue::Number)
    }

    /// The text payload, if textual.
    pub(crate) fn as_text(&self) -> Option<&str> {
        match self {
            PromptValue::Text(s) => Some(s),
            PromptValue::Number(_) => None,
        }
    }

    /// The numeric payload, if numeric.
    pub(crate) fn as_number(&self) -> Option<f64> {
        match self {
            PromptValue::Number(n) => Some(*n),
            PromptValue::Text(_) => None,
        }
    }
}

impl fmt::Display for PromptValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PromptValue::Text(s) => write!(f, "'{s}'"),
            PromptValue::Number(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
        }
    }
}

/// A condition over one attribute, in prompt-protocol form.
#[derive(Debug, Clone, PartialEq)]
pub struct Condition {
    /// Attribute label as written in the query.
    pub attribute: String,
    /// Operator.
    pub op: CmpOp,
    /// Operand values (0 for IS NULL, 1 for comparisons, 2 for BETWEEN,
    /// n for IN).
    pub values: Vec<PromptValue>,
}

impl Condition {
    /// Renders the condition as `<attribute> is <phrase>`.
    pub fn render(&self) -> String {
        format!("{} is {}", self.attribute, self.render_phrase())
    }

    /// Renders only the operator phrase (`greater than 1000000`).
    ///
    /// Well-formed conditions (the operand counts documented on
    /// [`Condition::values`]) render their canonical template. A condition
    /// missing an operand — which only arises from hand-built or corrupted
    /// values, never from [`Condition::parse`] — renders a `?` placeholder
    /// instead of panicking, so a worker thread formatting a prompt can
    /// never be killed by malformed input.
    pub fn render_phrase(&self) -> String {
        let v = |i: usize| {
            self.values
                .get(i)
                .map(PromptValue::to_string)
                .unwrap_or_else(|| "?".to_string())
        };
        match self.op {
            CmpOp::Eq => format!("equal to {}", v(0)),
            CmpOp::NotEq => format!("different from {}", v(0)),
            CmpOp::Gt => format!("greater than {}", v(0)),
            CmpOp::GtEq => format!("at least {}", v(0)),
            CmpOp::Lt => format!("less than {}", v(0)),
            CmpOp::LtEq => format!("at most {}", v(0)),
            CmpOp::Between => format!("between {} and {}", v(0), v(1)),
            CmpOp::In => {
                let items: Vec<String> = self.values.iter().map(|v| v.to_string()).collect();
                format!("one of {}", items.join(" / "))
            }
            CmpOp::Like => format!("matching the pattern {}", v(0)),
            CmpOp::IsNull => "unknown".to_string(),
            CmpOp::IsNotNull => "known".to_string(),
        }
    }

    /// Parses `<attribute> is <phrase>`.
    pub fn parse(text: &str) -> Option<Condition> {
        let (attribute, phrase) = split(text, &[" is "])?;
        let mut c = Self::parse_phrase(phrase)?;
        c.attribute = attribute.trim().to_string();
        Some(c)
    }

    /// Parses an operator phrase; the returned condition has an empty
    /// attribute.
    pub(crate) fn parse_phrase(phrase: &str) -> Option<Condition> {
        let phrase = phrase.trim().trim_end_matches(['?', '.']);
        let mk = |op, values| {
            Some(Condition {
                attribute: String::new(),
                op,
                values,
            })
        };
        let one = |rest: &str, op| {
            let v = PromptValue::parse(rest)?;
            mk(op, vec![v])
        };
        if let Some(r) = phrase.strip_prefix("equal to ") {
            return one(r, CmpOp::Eq);
        }
        if let Some(r) = phrase.strip_prefix("different from ") {
            return one(r, CmpOp::NotEq);
        }
        if let Some(r) = phrase.strip_prefix("greater than ") {
            return one(r, CmpOp::Gt);
        }
        if let Some(r) = phrase.strip_prefix("at least ") {
            return one(r, CmpOp::GtEq);
        }
        if let Some(r) = phrase.strip_prefix("less than ") {
            return one(r, CmpOp::Lt);
        }
        if let Some(r) = phrase.strip_prefix("at most ") {
            return one(r, CmpOp::LtEq);
        }
        if let Some(r) = phrase.strip_prefix("between ") {
            let (a, b) = split(r, &[" and "])?;
            let va = PromptValue::parse(a)?;
            let vb = PromptValue::parse(b)?;
            return mk(CmpOp::Between, vec![va, vb]);
        }
        if let Some(r) = phrase.strip_prefix("one of ") {
            let values: Option<Vec<PromptValue>> = r.split(" / ").map(PromptValue::parse).collect();
            return mk(CmpOp::In, values?);
        }
        if let Some(r) = phrase.strip_prefix("matching the pattern ") {
            return one(r, CmpOp::Like);
        }
        if phrase == "unknown" {
            return mk(CmpOp::IsNull, vec![]);
        }
        if phrase == "known" {
            return mk(CmpOp::IsNotNull, vec![]);
        }
        None
    }
}

/// A retrieval task decoded from an operator prompt.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskIntent {
    /// List key values of a relation (paper: base-relation access).
    ListKeys {
        /// Relation name as written in the query.
        relation: String,
        /// Key attribute label.
        key_attr: String,
        /// Optional pushed-down condition (prompt-pushdown optimization).
        condition: Option<Condition>,
        /// Keys already retrieved (the "Return more results" iteration).
        /// Shared behind an `Arc` so the iterating caller can hand the
        /// growing list to each successive prompt without re-cloning every
        /// previously seen key (the list is O(relation) by the last page).
        exclude: Arc<Vec<String>>,
    },
    /// List one page of key values by *offset* instead of by exclusion
    /// list: "starting after the first `offset` results". The speculative
    /// page protocol of the key-universe store fires these for pages past
    /// the first — the offset names the page boundary, so later pages can
    /// be requested in parallel while earlier ones are still parsing
    /// (an exclusion prompt can only be rendered once every prior key is
    /// known).
    ListKeysPage {
        /// Relation name as written in the query.
        relation: String,
        /// Key attribute label.
        key_attr: String,
        /// Optional pushed-down condition (prompt-pushdown optimization).
        condition: Option<Condition>,
        /// How many leading results to skip.
        offset: usize,
    },
    /// Fetch one attribute value for one key (paper: injected retrieval
    /// node before selections/joins/projections).
    FetchAttr {
        /// Relation name.
        relation: String,
        /// Key attribute label.
        key_attr: String,
        /// Key value identifying the tuple.
        key: String,
        /// Attribute to retrieve.
        attribute: String,
    },
    /// Boolean membership check (paper: selection operator prompt, "Has
    /// city c.name more than 1M population?").
    CheckFilter {
        /// Relation name.
        relation: String,
        /// Key attribute label.
        key_attr: String,
        /// Key value identifying the tuple.
        key: String,
        /// Condition to check.
        condition: Condition,
    },
    /// Multi-key attribute fetch: one prompt asks the same attribute for a
    /// whole batch of keys and the model answers one `key: value` line per
    /// key. Amortises the fixed preamble/instruction tokens the paper's
    /// per-cell prompts re-pay for every key (§5 reports *batched*
    /// prompts).
    FetchAttrBatch {
        /// Relation name.
        relation: String,
        /// Key attribute label.
        key_attr: String,
        /// Key values, one per requested line (rendered one per `- ` line;
        /// keys may contain `:` and commas, but never newlines).
        keys: Vec<String>,
        /// Attribute to retrieve.
        attribute: String,
    },
    /// Multi-key boolean filter check: one prompt carries the condition
    /// once and a batch of keys; the model answers one `key: Yes`/`key:
    /// No` line per key.
    FilterKeysBatch {
        /// Relation name.
        relation: String,
        /// Key attribute label.
        key_attr: String,
        /// Key values, one per requested line.
        keys: Vec<String>,
        /// Condition to check for every key.
        condition: Condition,
    },
    /// Grid-fused fetch: one prompt asks *several* attributes for a whole
    /// batch of keys and the model answers one `key ⌁ attr: value` line
    /// per (key, attribute) cell. Fuses `FetchAttrBatch` across columns so
    /// a scan step pays `ceil(C/A) × ceil(keys/B)` fetch prompts instead
    /// of `C × ceil(keys/B)`.
    FetchGridBatch {
        /// Relation name.
        relation: String,
        /// Key attribute label.
        key_attr: String,
        /// Key values, one per requested line (same `- ` line protocol as
        /// the single-attribute batch; keys may contain `:` and commas).
        keys: Vec<String>,
        /// Attributes to retrieve for every key, in answer-column order.
        attributes: Vec<String>,
    },
}

// ---------------------------------------------------------------------
// Rendering (used by galois-core's prompt generator)
// ---------------------------------------------------------------------

/// Renders the question line of a [`TaskIntent`] (without the few-shot
/// preamble; that is model-specific and added by the prompt builder).
pub fn render_task(intent: &TaskIntent) -> String {
    match intent {
        TaskIntent::ListKeys {
            relation,
            key_attr,
            condition,
            exclude,
        } => {
            let cond = condition
                .as_ref()
                .map(|c| format!(" whose {}", c.render()))
                .unwrap_or_default();
            if exclude.is_empty() {
                format!(
                    "List the {key_attr} of every {relation}{cond}. \
                     Answer with a comma-separated list of values only."
                )
            } else {
                format!(
                    "List the {key_attr} of every {relation}{cond}, excluding: {}. \
                     Answer with a comma-separated list of new values only, \
                     or say \"No more results\".",
                    exclude.join("; ")
                )
            }
        }
        TaskIntent::ListKeysPage {
            relation,
            key_attr,
            condition,
            offset,
        } => {
            let cond = condition
                .as_ref()
                .map(|c| format!(" whose {}", c.render()))
                .unwrap_or_default();
            format!(
                "List the {key_attr} of every {relation}{cond}, starting after the first \
                 {offset} results. Answer with a comma-separated list of new values only, \
                 or say \"No more results\"."
            )
        }
        TaskIntent::FetchAttr {
            relation,
            key_attr,
            key,
            attribute,
        } => {
            let (prefix, suffix) = render_fetch_attr_parts(relation, key_attr, attribute);
            format!("{prefix}{key}{suffix}")
        }
        TaskIntent::CheckFilter {
            relation,
            key_attr,
            key,
            condition,
        } => {
            let (prefix, suffix) = render_check_filter_parts(relation, key_attr, condition);
            format!("{prefix}{key}{suffix}")
        }
        TaskIntent::FetchAttrBatch {
            relation,
            key_attr,
            keys,
            attribute,
        } => format!(
            "For each {relation} identified by {key_attr} listed below, what is its \
             {attribute}? {FETCH_BATCH_MARKER}\n{}",
            render_key_lines(keys),
        ),
        TaskIntent::FilterKeysBatch {
            relation,
            key_attr,
            keys,
            condition,
        } => format!(
            "For each {relation} identified by {key_attr} listed below, is its {} {}? \
             {FILTER_BATCH_MARKER}\n{}",
            condition.attribute,
            condition.render_phrase(),
            render_key_lines(keys),
        ),
        TaskIntent::FetchGridBatch {
            relation,
            key_attr,
            keys,
            attributes,
        } => format!(
            "For each {relation} identified by {key_attr} listed below, what are its \
             {}? {FETCH_GRID_MARKER}\n{}",
            attributes.join(" / "),
            render_key_lines(keys),
        ),
    }
}

/// The [`TaskIntent::FetchAttr`] question split around the key. The fetch
/// phase renders one question per `(key, attribute)` cell and everything
/// except the key is constant per cell, so prompt builders can precompute
/// both halves once and splice each key in: `prefix + key + suffix` is
/// byte-identical to [`render_task`] on the equivalent intent (the render
/// arm itself goes through this function, so the two cannot fork).
pub fn render_fetch_attr_parts(
    relation: &str,
    key_attr: &str,
    attribute: &str,
) -> (String, String) {
    (
        format!("For the {relation} identified by {key_attr} '"),
        format!("', what is its {attribute}? Answer with the value only, or \"Unknown\"."),
    )
}

/// The [`TaskIntent::CheckFilter`] question split around the key, the
/// filter phase's counterpart of [`render_fetch_attr_parts`]: one
/// condition is asked of every surviving key, and `prefix + key + suffix`
/// is byte-identical to [`render_task`] on the equivalent intent (the
/// render arm goes through this function).
pub fn render_check_filter_parts(
    relation: &str,
    key_attr: &str,
    condition: &Condition,
) -> (String, String) {
    (
        format!("For the {relation} identified by {key_attr} '"),
        format!(
            "', is its {} {}? Answer \"Yes\" or \"No\".",
            condition.attribute,
            condition.render_phrase(),
        ),
    )
}

/// Instruction sentence of a batched fetch prompt. Doubling as the parse
/// marker keeps rendering and parsing in lock-step (the protocol cannot
/// silently fork).
const FETCH_BATCH_MARKER: &str = "Answer with exactly one line per key, \
     formatted as \"key: value\", or \"key: Unknown\". The keys:";

/// Instruction sentence of a batched filter prompt.
const FILTER_BATCH_MARKER: &str = "Answer with exactly one line per key, \
     formatted as \"key: Yes\" or \"key: No\". The keys:";

/// The `key ⌁ attribute` separator of a grid answer line. U+2301 never
/// occurs in schema attribute names or generated keys, so the line prefix
/// `"{key} ⌁ {attr}: "` is unambiguous even when attribute names collide
/// with key names or either side contains `:`.
pub(crate) const GRID_SEP: &str = " \u{2301} ";

/// The mark inside [`GRID_SEP`].
const GRID_MARK: char = '\u{2301}';

/// Instruction sentence of a grid-fused fetch prompt.
const FETCH_GRID_MARKER: &str = "Answer with exactly one line per key and attribute, \
     formatted as \"key \u{2301} attribute: value\", or \
     \"key \u{2301} attribute: Unknown\". The keys:";

/// Renders batch keys one per line behind a `- ` marker. Parsing strips
/// exactly one marker, so keys that themselves start with `- ` round-trip
/// (`- X` renders as `- - X`); keys may contain `:` and commas freely —
/// the line structure, not a delimiter, carries the boundary.
fn render_key_lines(keys: &[String]) -> String {
    let mut out = String::with_capacity(keys.iter().map(|k| k.len() + 3).sum());
    for (i, key) in keys.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str("- ");
        out.push_str(key);
    }
    out
}

/// Parses the `- key` lines of a batched prompt body.
fn parse_key_lines(body: &str) -> Option<Vec<String>> {
    let mut keys = Vec::new();
    for line in body.lines() {
        // Exactly one marker strip: see `render_key_lines`.
        keys.push(line.strip_prefix("- ")?.to_string());
    }
    Some(keys)
}

/// Splits a batched answer into per-key payloads in key order.
///
/// The model is asked for one `key: payload` line per key; lines are
/// consumed greedily in order (first unconsumed line whose prefix is
/// `"{key}: "` wins), so duplicate keys map to successive lines and a key
/// whose line the model dropped or garbled yields `None` — the caller's
/// per-key fallback re-asks exactly those.
///
/// Keys may shadow each other when one contains `": "` (`"Rome"` prefixes
/// `"Rome: Italy"`'s line): a line is assigned to a key only if no
/// *longer* key of the batch also owns it, so a dropped line can never
/// silently reroute another key's answer — the shadowed key just falls
/// back (batching may cost prompts, never accuracy).
///
/// When no key contains `": "`, a line's owner is the text before its
/// first `": "` and no key shadows another, so the split is linear
/// (`split_by_owner`); otherwise `split_batched_walk` tests every key
/// against every line.
pub fn split_batched_answer(answer: &str, keys: &[String]) -> Vec<Option<String>> {
    if keys.iter().any(|key| find(key, &[": "]).is_some()) {
        return split_batched_walk(answer, keys);
    }
    let cells: Vec<(&str, &str)> = keys.iter().map(|key| (key.as_str(), "")).collect();
    split_by_owner(
        answer,
        &cells,
        |(key, _), line| line.strip_prefix(key)?.strip_prefix(": "),
        |line| {
            let (key, payload) = split(line, &[": "])?;
            Some(((key, ""), payload))
        },
    )
    .into_iter()
    .map(|payload| payload.map(str::to_string))
    .collect()
}

/// An answer line's owner — `(key, "")` in a batched answer, `(key,
/// attribute)` in a grid — and its payload.
type Owned<'a> = ((&'a str, &'a str), &'a str);

/// Hands each cell, in order, the payload of the first line not yet taken
/// whose owner it is, given that `owner` names the one owner a line can
/// have. While the lines follow the cells one for one, line `i` is that
/// line for cell `i`; from the first that does not, the lines left are
/// indexed by owner, so the split is linear either way.
fn split_by_owner<'a>(
    answer: &'a str,
    cells: &[(&'a str, &'a str)],
    owns: impl Fn((&str, &str), &'a str) -> Option<&'a str>,
    owner: impl Fn(&'a str) -> Option<Owned<'a>>,
) -> Vec<Option<&'a str>> {
    let mut lines = answer.lines().map(str::trim);
    let mut payloads = Vec::with_capacity(cells.len());
    let mut pending = None;
    for cell in cells {
        let Some(line) = lines.next() else {
            break;
        };
        match owns(*cell, line) {
            Some(payload) => payloads.push(Some(payload)),
            None => {
                pending = owner(line);
                break;
            }
        }
    }
    let done = payloads.len();
    if done < cells.len() {
        // Each owner's lines, first to last: `heads` holds the first not
        // yet taken, `next` chains the later ones.
        let owned: Vec<Owned> = pending.into_iter().chain(lines.filter_map(owner)).collect();
        let mut heads = HashMap::with_capacity(owned.len());
        let mut next = vec![None; owned.len()];
        for (at, (of, _)) in owned.iter().enumerate().rev() {
            next[at] = heads.insert(*of, Some(at)).flatten();
        }
        payloads.extend(cells[done..].iter().map(|cell| {
            let head = heads.get_mut(cell)?;
            let at = (*head)?;
            *head = next[at];
            Some(owned[at].1)
        }));
    }
    payloads
}

/// [`split_batched_answer`] by testing every key against every unused
/// line: quadratic, and exact for keys that contain `": "`.
fn split_batched_walk(answer: &str, keys: &[String]) -> Vec<Option<String>> {
    let lines: Vec<&str> = answer.lines().map(str::trim).collect();
    let mut used = vec![false; lines.len()];
    fn owns<'a>(key: &str, line: &'a str) -> Option<&'a str> {
        line.strip_prefix(key)
            .and_then(|rest| rest.strip_prefix(": "))
    }
    keys.iter()
        .map(|key| {
            for (i, line) in lines.iter().enumerate() {
                if used[i] {
                    continue;
                }
                if let Some(payload) = owns(key, line) {
                    let shadowed = keys
                        .iter()
                        .any(|other| other.len() > key.len() && owns(other, line).is_some());
                    if shadowed {
                        continue;
                    }
                    used[i] = true;
                    return Some(payload.to_string());
                }
            }
            None
        })
        .collect()
}

/// Renders per-key payloads as the `key: payload` answer lines of a
/// batched prompt — the inverse of [`split_batched_answer`].
pub(crate) fn render_batched_answer<'a, I>(pairs: I) -> String
where
    I: IntoIterator<Item = (&'a str, &'a str)>,
{
    let mut out = String::new();
    for (i, (key, payload)) in pairs.into_iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(key);
        out.push_str(": ");
        out.push_str(payload);
    }
    out
}

/// Splits a grid answer into per-cell payloads: `result[ki][ai]` is the
/// payload for `keys[ki]` × `attrs[ai]`, or `None` when that cell's line
/// was dropped or garbled (the caller's fallback ladder re-asks exactly
/// those cells).
///
/// The model is asked for one `key ⌁ attr: payload` line per cell. Lines
/// are matched by their `"{key} ⌁ {attr}: "` prefix, not by position, so
/// a model that permutes answer lines still parses cleanly; duplicate
/// keys in a batch consume matching lines greedily in order. As in
/// [`split_batched_answer`], a line is assigned to a cell only if no cell
/// with a *longer* key also owns it — a key containing the separator can
/// never silently steal another cell's answer, it just falls back.
///
/// When no key contains `⌁` and no attribute `": "`, a line's owner is
/// the text before its first `⌁` and, after the separator, the text before
/// the first `": "`; no key shadows another, so the split is linear
/// (`split_by_owner`). Otherwise `split_grid_walk` tests every cell
/// against every line.
pub fn split_grid_answer(
    answer: &str,
    keys: &[String],
    attrs: &[String],
) -> Vec<Vec<Option<String>>> {
    if keys.iter().any(|key| key.contains(GRID_MARK))
        || attrs.iter().any(|attr| find(attr, &[": "]).is_some())
    {
        return split_grid_walk(answer, keys, attrs);
    }
    let cells: Vec<(&str, &str)> = keys
        .iter()
        .flat_map(|key| attrs.iter().map(move |attr| (key.as_str(), attr.as_str())))
        .collect();
    let mut payloads = split_by_owner(
        answer,
        &cells,
        |(key, attr), line| {
            line.strip_prefix(key)?
                .strip_prefix(GRID_SEP)?
                .strip_prefix(attr)?
                .strip_prefix(": ")
        },
        |line| {
            let (key, rest) = line.split_once(GRID_MARK)?;
            let (attr, payload) = split(rest.strip_prefix(' ')?, &[": "])?;
            Some(((key.strip_suffix(' ')?, attr), payload))
        },
    )
    .into_iter();
    keys.iter()
        .map(|_| {
            payloads
                .by_ref()
                .take(attrs.len())
                .map(|payload| payload.map(str::to_string))
                .collect()
        })
        .collect()
}

/// [`split_grid_answer`] by testing every cell against every unused line:
/// quadratic, and exact for keys that contain `⌁`.
fn split_grid_walk(answer: &str, keys: &[String], attrs: &[String]) -> Vec<Vec<Option<String>>> {
    let lines: Vec<&str> = answer.lines().map(str::trim).collect();
    let mut used = vec![false; lines.len()];
    fn owns<'a>(key: &str, attr: &str, line: &'a str) -> Option<&'a str> {
        line.strip_prefix(key)?
            .strip_prefix(GRID_SEP)?
            .strip_prefix(attr)?
            .strip_prefix(": ")
    }
    keys.iter()
        .map(|key| {
            attrs
                .iter()
                .map(|attr| {
                    for (i, line) in lines.iter().enumerate() {
                        if used[i] {
                            continue;
                        }
                        if let Some(payload) = owns(key, attr, line) {
                            let shadowed = keys.iter().any(|other| {
                                other.len() > key.len()
                                    && attrs.iter().any(|a| owns(other, a, line).is_some())
                            });
                            if shadowed {
                                continue;
                            }
                            used[i] = true;
                            return Some(payload.to_string());
                        }
                    }
                    None
                })
                .collect()
        })
        .collect()
}

/// Renders per-cell payloads as the `key ⌁ attr: payload` answer lines of
/// a grid-fused prompt — the inverse of [`split_grid_answer`].
pub(crate) fn render_grid_answer<'a, I>(cells: I) -> String
where
    I: IntoIterator<Item = (&'a str, &'a str, &'a str)>,
{
    let mut out = String::new();
    for (i, (key, attr, payload)) in cells.into_iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(key);
        out.push_str(GRID_SEP);
        out.push_str(attr);
        out.push_str(": ");
        out.push_str(payload);
    }
    out
}

// ---------------------------------------------------------------------
// Parsing (used by the simulated LLM)
// ---------------------------------------------------------------------

/// Byte offset where the final question's `Q: ` lead-in starts, if the
/// prompt carries one. Anchored to line starts — a `Q: ` in the middle of
/// a line (a question mentioning a key like `FAQ: basics`, or a batched
/// key list containing one) is content, not a marker.
pub(crate) fn question_start(prompt: &str) -> Option<usize> {
    question_span(prompt).map(|(start, _)| start)
}

/// Extracts the final question from a full prompt (drops the few-shot
/// preamble: the question follows the last line-initial `Q: ` marker, or
/// is the whole text when no marker is present).
pub fn question_line(prompt: &str) -> &str {
    match question_span(prompt) {
        Some((start, end)) => prompt[start + 3..end.unwrap_or(prompt.len())].trim(),
        None => prompt.trim(),
    }
}

/// [`question_start`] and, from the same scan back over the prompt's
/// newlines, where the question ends: the first `\nA:` after it.
fn question_span(prompt: &str) -> Option<(usize, Option<usize>)> {
    let mut end = prompt.len();
    let mut answer = None;
    while let Some(newline) = prompt[..end].rfind('\n') {
        let line = &prompt[newline + 1..];
        if line.starts_with("Q: ") {
            return Some((newline + 1, answer));
        }
        if line.starts_with("A:") {
            answer = Some(newline);
        }
        end = newline;
    }
    prompt.starts_with("Q: ").then_some((0, answer))
}

/// Byte offset of the first occurrence of `parts`, concatenated, in `s`,
/// without building a substring searcher (a prompt's fields are short).
/// It scans for one character of the pattern and compares the whole
/// pattern around each hit: the first ASCII punctuation mark, rarer in a
/// question than a letter or a space (`, what is its` is found by its
/// comma, not at every space), else the first character. `None` for an
/// empty pattern.
fn find(s: &str, parts: &[&str]) -> Option<usize> {
    let punctuation = parts
        .iter()
        .flat_map(|part| part.bytes())
        .enumerate()
        .find(|(_, b)| b.is_ascii_punctuation());
    let (skip, anchor) = match punctuation {
        Some((skip, b)) => (skip, char::from(b)),
        None => (0, parts.iter().flat_map(|part| part.chars()).next()?),
    };
    let hay = s.as_bytes();
    let mut from = 0;
    while let Some(hit) = s[from..].find(anchor) {
        let anchor_at = from + hit;
        from = anchor_at + anchor.len_utf8();
        let Some(at) = anchor_at.checked_sub(skip) else {
            continue;
        };
        // A byte match starts on a char boundary: the pattern's first byte
        // is a character's first byte, as `hay[at]` must then be.
        let mut rest = &hay[at..];
        let matches = parts
            .iter()
            .all(|part| match rest.strip_prefix(part.as_bytes()) {
                Some(after) => {
                    rest = after;
                    true
                }
                None => false,
            });
        if matches {
            return Some(at);
        }
    }
    None
}

/// `s.split_once(parts.concat())`, by [`find`].
fn split<'a>(s: &'a str, parts: &[&str]) -> Option<(&'a str, &'a str)> {
    let at = find(s, parts)?;
    let len: usize = parts.iter().map(|part| part.len()).sum();
    Some((&s[..at], &s[at + len..]))
}

/// The typed result of decoding an operator prompt.
///
/// The parsing hot path runs on worker threads over *model output and
/// injected fault text*, so it must classify garbage instead of panicking:
///
/// * [`Parsed`](ParseOutcome::Parsed) — a well-formed operator prompt;
/// * [`Malformed`](ParseOutcome::Malformed) — the text carries an operator
///   marker (`"List the … of every …"`, `"For the … identified by …"`,
///   `"For each … identified by …"`) but the body does not decode: a
///   truncated or garbled prompt, not a natural-language question. The
///   payload names the family, for diagnostics;
/// * [`Unrecognized`](ParseOutcome::Unrecognized) — no operator marker at
///   all; callers route these to the NL question-answering path.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseOutcome {
    /// A well-formed operator prompt and its decoded task.
    Parsed(TaskIntent),
    /// Operator-shaped text whose body failed to decode; the payload names
    /// the protocol family whose marker matched.
    Malformed(&'static str),
    /// No operator marker — not part of the prompt protocol.
    Unrecognized,
}

impl ParseOutcome {
    /// The decoded task, if the prompt was well-formed.
    pub(crate) fn intent(self) -> Option<TaskIntent> {
        match self {
            ParseOutcome::Parsed(t) => Some(t),
            _ => None,
        }
    }
}

/// Decodes an operator prompt into a typed [`ParseOutcome`] — the
/// panic-free entry point for the parsing hot path. The question's lead
/// (`List the `, `For the `, `For each `) picks the one family that can
/// match; a body that does not decode is classified by that family's
/// markers, so callers can tell a garbled operator prompt apart from an
/// ordinary NL question.
pub fn parse_task_outcome(prompt: &str) -> ParseOutcome {
    let q = question_line(prompt);
    for (lead, parse, family, markers) in FAMILIES {
        if let Some(rest) = q.strip_prefix(lead) {
            return match parse(rest) {
                Some(t) => ParseOutcome::Parsed(t),
                None if markers.iter().all(|marker| q.contains(marker)) => {
                    ParseOutcome::Malformed(family)
                }
                None => ParseOutcome::Unrecognized,
            };
        }
    }
    ParseOutcome::Unrecognized
}

/// The operator families: each one's lead, the parser of what follows it,
/// its name, and the markers that make a body it cannot decode
/// `Malformed` rather than `Unrecognized`.
type Family = (
    &'static str,
    fn(&str) -> Option<TaskIntent>,
    &'static str,
    &'static [&'static str],
);

const FAMILIES: [Family; 3] = [
    (
        "List the ",
        parse_list_keys,
        "list-keys",
        &[" of every ", ". Answer with"],
    ),
    (
        "For the ",
        parse_per_key,
        "per-key fetch/filter",
        &[" identified by "],
    ),
    (
        "For each ",
        parse_batched,
        "batched fetch/filter",
        &[" identified by "],
    ),
];

/// Attempts to decode an operator prompt into a [`TaskIntent`] — the
/// `Option` adapter over [`parse_task_outcome`] (malformed and
/// unrecognized both map to `None`).
pub fn parse_task(prompt: &str) -> Option<TaskIntent> {
    parse_task_outcome(prompt).intent()
}

/// A list question after its `List the ` lead.
fn parse_list_keys(rest: &str) -> Option<TaskIntent> {
    let (head, tail) = split(rest, &[" of every "])?;
    let key_attr = head.trim().to_string();
    // tail: `<relation>[ whose <cond>][, excluding: …]. Answer with …`.
    // The "Answer with" marker is mandatory: it is what distinguishes an
    // operator prompt from an NL question that also starts with "List
    // the … of every …" (those go through the QA path instead).
    let (body, _) = split(tail, &[". Answer with"])?;
    let body = body.trim();
    // Offset-page form: `…, starting after the first N results`.
    if let Some((b, off)) = split(body, &[", starting after the first "]) {
        let offset: usize = off.strip_suffix(" results")?.trim().parse().ok()?;
        let (relation, condition) = match split(b, &[" whose "]) {
            Some((r, c)) => (r.trim().to_string(), Some(Condition::parse(c)?)),
            None => (b.trim().to_string(), None),
        };
        if relation.is_empty() || key_attr.is_empty() {
            return None;
        }
        return Some(TaskIntent::ListKeysPage {
            relation,
            key_attr,
            condition,
            offset,
        });
    }
    let (body, exclude) = match split(body, &[", excluding: "]) {
        Some((b, ex)) => (
            b,
            Arc::new(
                ex.split("; ")
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect(),
            ),
        ),
        None => (body, Arc::new(Vec::new())),
    };
    let (relation, condition) = match split(body, &[" whose "]) {
        Some((r, c)) => (r.trim().to_string(), Some(Condition::parse(c)?)),
        None => (body.trim().to_string(), None),
    };
    if relation.is_empty() || key_attr.is_empty() {
        return None;
    }
    Some(TaskIntent::ListKeys {
        relation,
        key_attr,
        condition,
        exclude,
    })
}

/// A per-key question after its `For the ` lead: `<relation> identified
/// by <key_attr> '<key>', …`, a fetch or else a filter check.
fn parse_per_key(rest: &str) -> Option<TaskIntent> {
    let (relation, rest) = split(rest, &[" identified by "])?;
    let (key_attr, rest) = split(rest, &[" '"])?;
    let (relation, key_attr) = (relation.trim(), key_attr.trim());
    parse_fetch_attr(relation, key_attr, rest)
        .or_else(|| parse_check_filter(relation, key_attr, rest))
}

/// A batched question after its `For each ` lead: `<relation> identified
/// by <key_attr> listed below, …`, a key-batch fetch, a grid fetch or a
/// filter batch, tried in that order.
fn parse_batched(rest: &str) -> Option<TaskIntent> {
    let (relation, rest) = split(rest, &[" identified by "])?;
    let relation = relation.trim();
    parse_fetch_attr_batch(relation, rest)
        .or_else(|| parse_fetch_grid_batch(relation, rest))
        .or_else(|| parse_filter_keys_batch(relation, rest))
}

/// `<key>', what is its <attribute>? …`.
fn parse_fetch_attr(relation: &str, key_attr: &str, rest: &str) -> Option<TaskIntent> {
    let (key, rest) = split(rest, &["', what is its "])?;
    let attribute = rest.split_once('?').map_or(rest, |(a, _)| a).trim();
    Some(TaskIntent::FetchAttr {
        relation: relation.to_string(),
        key_attr: key_attr.to_string(),
        key: key.to_string(),
        attribute: attribute.to_string(),
    })
}

/// `<key>', is its <attribute> <phrase>? Answer …`.
fn parse_check_filter(relation: &str, key_attr: &str, rest: &str) -> Option<TaskIntent> {
    let (key, rest) = split(rest, &["', is its "])?;
    let question = split(rest, &["? Answer"]).map_or(rest, |(q, _)| q);
    Some(TaskIntent::CheckFilter {
        relation: relation.to_string(),
        key_attr: key_attr.to_string(),
        key: key.to_string(),
        condition: parse_attribute_phrase(question)?,
    })
}

/// `<key_attr> listed below, what is its <attribute>? <marker>\n<keys>`.
fn parse_fetch_attr_batch(relation: &str, rest: &str) -> Option<TaskIntent> {
    let (key_attr, rest) = split(rest, &[" listed below, what is its "])?;
    let (attribute, body) = split(rest, &["? ", FETCH_BATCH_MARKER, "\n"])?;
    Some(TaskIntent::FetchAttrBatch {
        relation: relation.to_string(),
        key_attr: key_attr.trim().to_string(),
        keys: parse_key_lines(body)?,
        attribute: attribute.trim().to_string(),
    })
}

/// `<key_attr> listed below, what are its <a> / <b>? <marker>\n<keys>`.
fn parse_fetch_grid_batch(relation: &str, rest: &str) -> Option<TaskIntent> {
    let (key_attr, rest) = split(rest, &[" listed below, what are its "])?;
    let (attributes, body) = split(rest, &["? ", FETCH_GRID_MARKER, "\n"])?;
    let attributes: Vec<String> = attributes
        .split(" / ")
        .map(|a| a.trim().to_string())
        .collect();
    if attributes.iter().any(String::is_empty) {
        return None;
    }
    Some(TaskIntent::FetchGridBatch {
        relation: relation.to_string(),
        key_attr: key_attr.trim().to_string(),
        keys: parse_key_lines(body)?,
        attributes,
    })
}

/// `<key_attr> listed below, is its <attribute> <phrase>? <marker>\n<keys>`.
fn parse_filter_keys_batch(relation: &str, rest: &str) -> Option<TaskIntent> {
    let (key_attr, rest) = split(rest, &[" listed below, is its "])?;
    let (question, body) = split(rest, &["? ", FILTER_BATCH_MARKER, "\n"])?;
    let condition = parse_attribute_phrase(question)?;
    Some(TaskIntent::FilterKeysBatch {
        relation: relation.to_string(),
        key_attr: key_attr.trim().to_string(),
        keys: parse_key_lines(body)?,
        condition,
    })
}

/// Splits `<attribute> <phrase>` at the last space after which an operator
/// phrase parses: the attribute is the first token run until a known
/// phrase start, longest attribute first.
fn parse_attribute_phrase(question: &str) -> Option<Condition> {
    question.rmatch_indices(' ').find_map(|(at, _)| {
        let mut c = Condition::parse_phrase(&question[at + 1..])?;
        c.attribute = question[..at].to_string();
        Some(c)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::strategy::BoxedStrategy;

    fn cond(attr: &str, op: CmpOp, values: Vec<PromptValue>) -> Condition {
        Condition {
            attribute: attr.to_string(),
            op,
            values,
        }
    }

    #[test]
    fn value_roundtrip() {
        for v in [
            PromptValue::Text("Rome".into()),
            PromptValue::Number(1000000.0),
            PromptValue::Number(2.5),
        ] {
            assert_eq!(PromptValue::parse(&v.to_string()), Some(v));
        }
    }

    #[test]
    fn condition_phrases_roundtrip() {
        let cases = vec![
            cond("population", CmpOp::Gt, vec![PromptValue::Number(1e6)]),
            cond("name", CmpOp::Eq, vec![PromptValue::Text("Rome".into())]),
            cond(
                "population",
                CmpOp::Between,
                vec![PromptValue::Number(10.0), PromptValue::Number(20.0)],
            ),
            cond(
                "country",
                CmpOp::In,
                vec![
                    PromptValue::Text("Italy".into()),
                    PromptValue::Text("France".into()),
                ],
            ),
            cond("name", CmpOp::Like, vec![PromptValue::Text("R%".into())]),
            cond("mayor", CmpOp::IsNull, vec![]),
            cond("mayor", CmpOp::IsNotNull, vec![]),
            cond("elevation", CmpOp::LtEq, vec![PromptValue::Number(100.0)]),
        ];
        for c in cases {
            let text = c.render();
            let parsed = Condition::parse(&text).unwrap_or_else(|| panic!("parse {text}"));
            assert_eq!(parsed, c, "{text}");
        }
    }

    #[test]
    fn task_list_keys_roundtrip() {
        let t = TaskIntent::ListKeys {
            relation: "city".into(),
            key_attr: "name".into(),
            condition: Some(cond(
                "population",
                CmpOp::Gt,
                vec![PromptValue::Number(1e6)],
            )),
            exclude: std::sync::Arc::new(vec![]),
        };
        assert_eq!(parse_task(&render_task(&t)), Some(t));
    }

    #[test]
    fn task_list_keys_with_exclusions_roundtrip() {
        let t = TaskIntent::ListKeys {
            relation: "city".into(),
            key_attr: "name".into(),
            condition: None,
            exclude: std::sync::Arc::new(vec!["Rome".into(), "Paris".into()]),
        };
        assert_eq!(parse_task(&render_task(&t)), Some(t));
    }

    #[test]
    fn task_list_keys_page_roundtrip() {
        let t = TaskIntent::ListKeysPage {
            relation: "city".into(),
            key_attr: "name".into(),
            condition: None,
            offset: 8,
        };
        assert_eq!(parse_task(&render_task(&t)), Some(t));
    }

    #[test]
    fn task_list_keys_page_with_condition_roundtrip() {
        let t = TaskIntent::ListKeysPage {
            relation: "city".into(),
            key_attr: "name".into(),
            condition: Some(cond(
                "population",
                CmpOp::Gt,
                vec![PromptValue::Number(1e6)],
            )),
            offset: 20,
        };
        assert_eq!(parse_task(&render_task(&t)), Some(t));
    }

    #[test]
    fn task_fetch_attr_roundtrip() {
        let t = TaskIntent::FetchAttr {
            relation: "city".into(),
            key_attr: "name".into(),
            key: "Rome".into(),
            attribute: "population".into(),
        };
        assert_eq!(parse_task(&render_task(&t)), Some(t));
    }

    #[test]
    fn task_check_filter_roundtrip() {
        let t = TaskIntent::CheckFilter {
            relation: "city".into(),
            key_attr: "name".into(),
            key: "New York City".into(),
            condition: cond("population", CmpOp::GtEq, vec![PromptValue::Number(1e6)]),
        };
        assert_eq!(parse_task(&render_task(&t)), Some(t));
    }

    #[test]
    fn multi_word_attribute_in_filter() {
        let t = TaskIntent::CheckFilter {
            relation: "airport".into(),
            key_attr: "code".into(),
            key: "JFK".into(),
            condition: cond(
                "yearly passenger count",
                CmpOp::Gt,
                vec![PromptValue::Number(1e7)],
            ),
        };
        assert_eq!(parse_task(&render_task(&t)), Some(t));
    }

    #[test]
    fn task_fetch_attr_batch_roundtrip() {
        let t = TaskIntent::FetchAttrBatch {
            relation: "city".into(),
            key_attr: "name".into(),
            keys: vec!["Rome".into(), "New York City".into(), "- dashed".into()],
            attribute: "population".into(),
        };
        assert_eq!(parse_task(&render_task(&t)), Some(t));
    }

    #[test]
    fn task_filter_keys_batch_roundtrip() {
        let t = TaskIntent::FilterKeysBatch {
            relation: "city".into(),
            key_attr: "name".into(),
            keys: vec!["Rome".into(), "Paris".into()],
            condition: cond("population", CmpOp::Gt, vec![PromptValue::Number(1e6)]),
        };
        assert_eq!(parse_task(&render_task(&t)), Some(t));
    }

    #[test]
    fn batched_keys_with_colons_and_commas_roundtrip() {
        let t = TaskIntent::FetchAttrBatch {
            relation: "song".into(),
            key_attr: "title".into(),
            keys: vec![
                "Home: Live, Vol. 2".into(),
                "a, b: c".into(),
                "plain".into(),
            ],
            attribute: "releaseYear".into(),
        };
        assert_eq!(parse_task(&render_task(&t)), Some(t));
    }

    #[test]
    fn split_batched_answer_matches_keys_in_order() {
        let keys: Vec<String> = vec!["Rome".into(), "Pa: ris".into(), "Lyon".into()];
        let answer = "Rome: 2800000\nPa: ris: Unknown\nLyon: 500000";
        assert_eq!(
            split_batched_answer(answer, &keys),
            vec![
                Some("2800000".to_string()),
                Some("Unknown".to_string()),
                Some("500000".to_string()),
            ]
        );
        // A dropped line yields None for that key only.
        let partial = "Rome: 2800000\nLyon: 500000";
        assert_eq!(
            split_batched_answer(partial, &keys),
            vec![
                Some("2800000".to_string()),
                None,
                Some("500000".to_string())
            ]
        );
    }

    #[test]
    fn shadowed_keys_fall_back_instead_of_stealing_answers() {
        // "Rome"'s line was dropped; the surviving line belongs to
        // "Rome: Italy". "Rome" must yield None (→ fallback re-ask), not
        // silently take "Italy: Yes" as its payload.
        let keys: Vec<String> = vec!["Rome".into(), "Rome: Italy".into()];
        assert_eq!(
            split_batched_answer("Rome: Italy: Yes", &keys),
            vec![None, Some("Yes".to_string())]
        );
        // With both lines present, both keys resolve.
        assert_eq!(
            split_batched_answer("Rome: No\nRome: Italy: Yes", &keys),
            vec![Some("No".to_string()), Some("Yes".to_string())]
        );
    }

    #[test]
    fn question_markers_inside_keys_do_not_hijack_the_question() {
        // A key containing "Q: " mid-line must not truncate the parsed
        // question: the marker is only recognised at line starts.
        let t = TaskIntent::FetchAttrBatch {
            relation: "song".into(),
            key_attr: "title".into(),
            keys: vec!["FAQ: The Basics".into(), "Plain".into()],
            attribute: "releaseYear".into(),
        };
        assert_eq!(parse_task(&render_task(&t)), Some(t.clone()));
        // And through a few-shot preamble + "\nA:" suffix, like the real
        // prompt builder produces.
        let wrapped = format!(
            "I am a bot.\nQ: What is 1+1?\nA: 2.\nQ: {}\nA:",
            render_task(&t)
        );
        assert_eq!(parse_task(&wrapped), Some(t));
    }

    #[test]
    fn split_batched_answer_handles_duplicates_and_garbage() {
        let keys: Vec<String> = vec!["A".into(), "A".into()];
        let answer = "A: 1\nA: 2";
        assert_eq!(
            split_batched_answer(answer, &keys),
            vec![Some("1".to_string()), Some("2".to_string())]
        );
        assert_eq!(split_batched_answer("nonsense", &keys), vec![None, None]);
    }

    #[test]
    fn render_batched_answer_is_split_inverse() {
        let keys: Vec<String> = vec!["Rome".into(), "Lyon".into()];
        let rendered = render_batched_answer(vec![("Rome", "Yes"), ("Lyon", "No")]);
        assert_eq!(
            split_batched_answer(&rendered, &keys),
            vec![Some("Yes".to_string()), Some("No".to_string())]
        );
    }

    #[test]
    fn task_fetch_grid_batch_roundtrip() {
        let t = TaskIntent::FetchGridBatch {
            relation: "city".into(),
            key_attr: "name".into(),
            keys: vec!["Rome".into(), "New York City".into(), "- dashed".into()],
            attributes: vec!["population".into(), "elevation".into()],
        };
        assert_eq!(parse_task(&render_task(&t)), Some(t.clone()));
        let wrapped = format!(
            "I am a bot.\nQ: What is 1+1?\nA: 2.\nQ: {}\nA:",
            render_task(&t)
        );
        assert_eq!(parse_task(&wrapped), Some(t));
    }

    #[test]
    fn grid_keys_with_colons_and_commas_roundtrip() {
        let t = TaskIntent::FetchGridBatch {
            relation: "song".into(),
            key_attr: "title".into(),
            keys: vec![
                "Home: Live, Vol. 2".into(),
                "a, b: c".into(),
                "plain".into(),
            ],
            attributes: vec!["releaseYear".into(), "yearly passenger count".into()],
        };
        assert_eq!(parse_task(&render_task(&t)), Some(t));
    }

    #[test]
    fn split_grid_answer_matches_cells_in_any_line_order() {
        let keys: Vec<String> = vec!["Rome".into(), "Pa: ris".into()];
        let attrs: Vec<String> = vec!["population".into(), "country".into()];
        // Lines permuted relative to (key, attr) request order: matching
        // is by prefix, not position.
        let answer = "Pa: ris \u{2301} country: France\n\
                      Rome \u{2301} population: 2800000\n\
                      Pa: ris \u{2301} population: Unknown\n\
                      Rome \u{2301} country: Italy: South";
        assert_eq!(
            split_grid_answer(answer, &keys, &attrs),
            vec![
                vec![
                    Some("2800000".to_string()),
                    Some("Italy: South".to_string())
                ],
                vec![Some("Unknown".to_string()), Some("France".to_string())],
            ]
        );
        // A dropped line yields None for that cell only.
        let partial = "Rome \u{2301} population: 2800000\nPa: ris \u{2301} country: France";
        assert_eq!(
            split_grid_answer(partial, &keys, &attrs),
            vec![
                vec![Some("2800000".to_string()), None],
                vec![None, Some("France".to_string())],
            ]
        );
    }

    #[test]
    fn split_grid_answer_handles_duplicate_keys_and_empty_values() {
        let keys: Vec<String> = vec!["A".into(), "A".into()];
        let attrs: Vec<String> = vec!["x".into()];
        // Duplicate keys consume matching lines greedily in order. An
        // *empty* payload trims down to a line without the ": " separator,
        // so it reads as garbled → None → the caller's fallback re-asks
        // that one cell (same contract as `split_batched_answer`; accuracy
        // is preserved by the re-ask, never by guessing).
        assert_eq!(
            split_grid_answer("A \u{2301} x: 1\nA \u{2301} x: ", &keys, &attrs),
            vec![vec![Some("1".to_string())], vec![None]]
        );
        assert_eq!(
            split_grid_answer("nonsense", &keys, &attrs),
            vec![vec![None], vec![None]]
        );
    }

    #[test]
    fn grid_attr_names_colliding_with_keys_do_not_cross_wire() {
        // The key "population" collides with the attribute "population";
        // the ⌁ separator keeps every cell unambiguous.
        let keys: Vec<String> = vec!["population".into(), "Rome".into()];
        let attrs: Vec<String> = vec!["population".into()];
        let answer = "population \u{2301} population: 7\nRome \u{2301} population: 9";
        assert_eq!(
            split_grid_answer(answer, &keys, &attrs),
            vec![vec![Some("7".to_string())], vec![Some("9".to_string())]]
        );
    }

    #[test]
    fn grid_shadowed_keys_fall_back_instead_of_stealing_answers() {
        // "Rome"'s line was dropped; the surviving line belongs to the
        // longer key "Rome ⌁ population: x" (a key that embeds the
        // separator). "Rome" must yield None, not steal the line.
        let keys: Vec<String> = vec!["Rome".into(), "Rome \u{2301} population: x".into()];
        let attrs: Vec<String> = vec!["population".into()];
        let answer = "Rome \u{2301} population: x \u{2301} population: 5";
        assert_eq!(
            split_grid_answer(answer, &keys, &attrs),
            vec![vec![None], vec![Some("5".to_string())]]
        );
    }

    #[test]
    fn render_grid_answer_is_split_inverse() {
        let keys: Vec<String> = vec!["Rome".into(), "Lyon".into()];
        let attrs: Vec<String> = vec!["population".into(), "country".into()];
        let rendered = render_grid_answer(vec![
            ("Rome", "population", "2800000"),
            ("Rome", "country", "Italy"),
            ("Lyon", "population", "500000"),
            ("Lyon", "country", "France"),
        ]);
        assert_eq!(
            split_grid_answer(&rendered, &keys, &attrs),
            vec![
                vec![Some("2800000".to_string()), Some("Italy".to_string())],
                vec![Some("500000".to_string()), Some("France".to_string())],
            ]
        );
    }

    #[test]
    fn question_line_extraction() {
        let prompt = "I am a bot.\nQ: What is 1+1?\nA: 2.\nQ: List the name of every city. \
                      Answer with a comma-separated list of values only.\nA:";
        assert!(question_line(prompt).starts_with("List the name"));
        assert_eq!(question_line("bare text"), "bare text");
    }

    #[test]
    fn garbage_does_not_parse_or_panic() {
        assert_eq!(parse_task("tell me a joke"), None);
        assert_eq!(parse_task(""), None);
        assert_eq!(parse_task("List the of every . Answer with"), None);
    }

    #[test]
    fn parse_outcome_classifies_garbled_operator_prompts() {
        // No marker at all → Unrecognized (routes to the QA path).
        assert_eq!(
            parse_task_outcome("tell me a joke"),
            ParseOutcome::Unrecognized
        );
        assert_eq!(parse_task_outcome(""), ParseOutcome::Unrecognized);
        // Marker present, body garbled → Malformed, naming the family.
        assert_eq!(
            parse_task_outcome("List the of every . Answer with"),
            ParseOutcome::Malformed("list-keys")
        );
        assert_eq!(
            parse_task_outcome("For the city identified by \u{26a1}garble"),
            ParseOutcome::Malformed("per-key fetch/filter")
        );
        assert_eq!(
            parse_task_outcome("For each city identified by name listed below, what"),
            ParseOutcome::Malformed("batched fetch/filter")
        );
        // Well-formed → Parsed, and the Option adapter agrees.
        let t = TaskIntent::FetchAttr {
            relation: "city".into(),
            key_attr: "name".into(),
            key: "Rome".into(),
            attribute: "population".into(),
        };
        let rendered = render_task(&t);
        assert_eq!(
            parse_task_outcome(&rendered),
            ParseOutcome::Parsed(t.clone())
        );
        assert_eq!(parse_task(&rendered), Some(t));
    }

    #[test]
    fn render_phrase_tolerates_missing_operands() {
        // A condition stripped of its operands (corrupted input) renders a
        // placeholder instead of panicking; well-formed conditions are
        // untouched (covered by `condition_phrases_roundtrip`).
        let c = cond("population", CmpOp::Between, vec![PromptValue::Number(5.0)]);
        assert_eq!(c.render_phrase(), "between 5 and ?");
        let c = cond("population", CmpOp::Gt, vec![]);
        assert_eq!(c.render_phrase(), "greater than ?");
    }

    /// Fragments of hostile text: protocol markers, quotes, separators,
    /// line breaks and multi-byte characters.
    const HOSTILE: &[&str] = &[
        "Rome",
        "population",
        "'",
        "', is its ",
        "', what is its ",
        ", ",
        "\nQ: ",
        "Q: ",
        "\n",
        "\nA:",
        "é",
        "東京",
        "😀",
        " ",
        " is ",
        " and ",
        " / ",
        "; ",
        ": ",
        "?",
        "? Answer",
        " of every ",
        " identified by ",
        " listed below, what is its ",
        " listed below, is its ",
        " whose ",
        ". Answer with",
        "- ",
        "\u{2301}",
        "equal to ",
        "greater than 5",
        "known",
        "7",
    ];

    /// Text of up to three hostile fragments, empty included.
    fn hostile() -> BoxedStrategy<String> {
        proptest::collection::vec(0..HOSTILE.len(), 0..4)
            .prop_map(|picks| picks.into_iter().map(|i| HOSTILE[i]).collect())
    }

    fn prompt_value() -> BoxedStrategy<PromptValue> {
        prop_oneof![
            hostile().prop_map(PromptValue::Text),
            proptest::sample::select(vec![0.0, 5.0, -2.5, 1e6]).prop_map(PromptValue::Number),
        ]
    }

    fn condition() -> BoxedStrategy<Condition> {
        const OPS: [CmpOp; 11] = [
            CmpOp::Eq,
            CmpOp::NotEq,
            CmpOp::Gt,
            CmpOp::GtEq,
            CmpOp::Lt,
            CmpOp::LtEq,
            CmpOp::Between,
            CmpOp::In,
            CmpOp::Like,
            CmpOp::IsNull,
            CmpOp::IsNotNull,
        ];
        (
            hostile(),
            0..OPS.len(),
            proptest::collection::vec(prompt_value(), 0..4),
        )
            .prop_map(|(attribute, op, values)| Condition {
                attribute,
                op: OPS[op],
                values,
            })
    }

    /// Every intent kind over hostile relation, key and attribute text.
    fn hostile_intent() -> BoxedStrategy<TaskIntent> {
        let fields = (hostile(), hostile(), hostile(), hostile());
        let keys = proptest::collection::vec(hostile(), 0..4);
        (
            0usize..7,
            fields,
            keys,
            proptest::option::of(condition()),
            condition(),
            0usize..50,
        )
            .prop_map(
                |(kind, (relation, key_attr, key, attribute), keys, pushed, condition, offset)| {
                    match kind {
                        0 => TaskIntent::ListKeys {
                            relation,
                            key_attr,
                            condition: pushed,
                            exclude: Arc::new(keys),
                        },
                        1 => TaskIntent::ListKeysPage {
                            relation,
                            key_attr,
                            condition: pushed,
                            offset,
                        },
                        2 => TaskIntent::FetchAttr {
                            relation,
                            key_attr,
                            key,
                            attribute,
                        },
                        3 => TaskIntent::CheckFilter {
                            relation,
                            key_attr,
                            key,
                            condition,
                        },
                        4 => TaskIntent::FetchAttrBatch {
                            relation,
                            key_attr,
                            keys,
                            attribute,
                        },
                        5 => TaskIntent::FilterKeysBatch {
                            relation,
                            key_attr,
                            keys,
                            condition,
                        },
                        _ => TaskIntent::FetchGridBatch {
                            relation,
                            key_attr,
                            keys,
                            attributes: vec![attribute, key],
                        },
                    }
                },
            )
    }

    /// What a prompt can carry before its question.
    const PREAMBLES: &[&str] = &[
        "",
        "Q: What is 1+1?\nA: 2.\n",
        "You answer briefly.\nQ: For the city identified by name 'Oslo', what is its \
         population? Answer with the value only, or \"Unknown\".\nA: 700000\n",
    ];

    /// A rendered prompt, then garbled: `cut` keeps a char-boundary head
    /// (of `cut` % (chars + 1) chars; no cut when `cut` is past the end),
    /// and `insert` splices a hostile fragment in at a char boundary.
    fn garbled(prompt: &str, cut: usize, insert: Option<(usize, String)>) -> String {
        let chars: Vec<char> = prompt.chars().collect();
        let mut chars = if cut <= chars.len() {
            chars[..cut].to_vec()
        } else {
            chars
        };
        if let Some((at, text)) = insert {
            let at = at % (chars.len() + 1);
            chars.splice(at..at, text.chars());
        }
        chars.into_iter().collect()
    }

    proptest! {
        #[test]
        fn parser_matches_its_reference_on_hostile_and_garbled_prompts(
            intent in hostile_intent(),
            preamble in 0..PREAMBLES.len(),
            framed in any::<bool>(),
            cut in 0usize..2000,
            insert in proptest::option::of((0usize..2000, hostile())),
        ) {
            let question = render_task(&intent);
            let prompt = if framed {
                format!("{}Q: {question}\nA:", PREAMBLES[preamble])
            } else {
                question
            };
            for prompt in [prompt.clone(), garbled(&prompt, cut, insert.clone())] {
                prop_assert_eq!(
                    question_start(&prompt),
                    reference::question_start(&prompt),
                    "{:?}", prompt
                );
                prop_assert_eq!(question_line(&prompt), reference::question_line(&prompt));
                prop_assert_eq!(
                    parse_task_outcome(&prompt),
                    reference::parse_task_outcome(&prompt),
                    "{:?}", prompt
                );
            }
        }

        #[test]
        fn find_agrees_with_str_find(
            hay in proptest::collection::vec(hostile(), 0..6),
            parts in proptest::collection::vec(hostile(), 1..4),
        ) {
            let hay = hay.concat();
            let pattern = parts.concat();
            let parts: Vec<&str> = parts.iter().map(String::as_str).collect();
            let expected = (!pattern.is_empty()).then(|| hay.find(&pattern)).flatten();
            prop_assert_eq!(find(&hay, &parts), expected, "{:?} in {:?}", parts, hay);
        }

        #[test]
        fn linear_answer_splits_match_the_walk(
            keys in proptest::collection::vec(0..SPLIT_KEYS.len(), 0..6),
            attrs in proptest::collection::vec(0..SPLIT_KEYS.len(), 1..4),
            lines in proptest::collection::vec(
                (0..2 * SPLIT_KEYS.len(), 0..2 * SPLIT_KEYS.len(), hostile(), 0usize..4),
                0..16,
            ),
        ) {
            let keys: Vec<&str> = keys.into_iter().map(|i| SPLIT_KEYS[i]).collect();
            let attrs: Vec<&str> = attrs.into_iter().map(|i| SPLIT_KEYS[i]).collect();
            // Half the lines name one of the call's keys (and attributes),
            // half any text of the pool.
            let pick = |of: &[&'static str], i: usize| match i.checked_sub(SPLIT_KEYS.len()) {
                Some(i) if !of.is_empty() => of[i % of.len()],
                _ => SPLIT_KEYS[i % SPLIT_KEYS.len()],
            };
            let pad = ["", " ", "\t", " \r"];
            let batched: String = lines
                .iter()
                .map(|(k, _, payload, p)| {
                    format!("{}{}: {payload}{}\n", pad[*p], pick(&keys, *k), pad[3 - p])
                })
                .collect();
            let grid: String = lines
                .iter()
                .map(|(k, a, payload, p)| {
                    let (key, attr) = (pick(&keys, *k), pick(&attrs, *a));
                    format!("{}{key}{GRID_SEP}{attr}: {payload}{}\n", pad[*p], pad[3 - p])
                })
                .collect();
            let keys: Vec<String> = keys.into_iter().map(String::from).collect();
            let attrs: Vec<String> = attrs.into_iter().map(String::from).collect();
            // Each answer as written, and read as the other kind.
            for answer in [&batched, &grid] {
                prop_assert_eq!(
                    split_batched_answer(answer, &keys),
                    split_batched_walk(answer, &keys),
                    "{:?} {:?}", keys, answer
                );
                prop_assert_eq!(
                    split_grid_answer(answer, &keys, &attrs),
                    split_grid_walk(answer, &keys, &attrs),
                    "{:?} {:?} {:?}", keys, attrs, answer
                );
            }
        }
    }

    /// Keys and attributes for the split property: prefixes of each other,
    /// padded, empty, multi-byte, and a few holding a separator (`": "`,
    /// `⌁`) or the start or end of one, which the walk must serve.
    const SPLIT_KEYS: &[&str] = &[
        "Rome",
        "Rome ",
        "Ro",
        "Rome:",
        "",
        "é",
        "東京",
        "pop",
        "a:b",
        " x",
        "Rome: Italy",
        "Rome \u{2301}",
        "x \u{2301} y",
    ];
}

/// The prompt parser as it was before it scanned bytes: `split_once` on
/// substring patterns, a `rfind` for the question, and filter questions
/// split by joining words. Kept as the reference the parser is checked
/// against.
#[cfg(test)]
mod reference {
    use super::{parse_key_lines, CmpOp, Condition, ParseOutcome, PromptValue, TaskIntent};
    use super::{FETCH_BATCH_MARKER, FETCH_GRID_MARKER, FILTER_BATCH_MARKER};
    use std::sync::Arc;

    fn condition_parse(text: &str) -> Option<Condition> {
        let (attribute, phrase) = text.split_once(" is ")?;
        let mut c = parse_phrase(phrase)?;
        c.attribute = attribute.trim().to_string();
        Some(c)
    }

    fn parse_phrase(phrase: &str) -> Option<Condition> {
        let phrase = phrase.trim().trim_end_matches(['?', '.']);
        let mk = |op, values| {
            Some(Condition {
                attribute: String::new(),
                op,
                values,
            })
        };
        let one = |rest: &str, op| mk(op, vec![PromptValue::parse(rest)?]);
        for (lead, op) in [
            ("equal to ", CmpOp::Eq),
            ("different from ", CmpOp::NotEq),
            ("greater than ", CmpOp::Gt),
            ("at least ", CmpOp::GtEq),
            ("less than ", CmpOp::Lt),
            ("at most ", CmpOp::LtEq),
        ] {
            if let Some(r) = phrase.strip_prefix(lead) {
                return one(r, op);
            }
        }
        if let Some(r) = phrase.strip_prefix("between ") {
            let (a, b) = r.split_once(" and ")?;
            return mk(
                CmpOp::Between,
                vec![PromptValue::parse(a)?, PromptValue::parse(b)?],
            );
        }
        if let Some(r) = phrase.strip_prefix("one of ") {
            let values: Option<Vec<PromptValue>> = r.split(" / ").map(PromptValue::parse).collect();
            return mk(CmpOp::In, values?);
        }
        if let Some(r) = phrase.strip_prefix("matching the pattern ") {
            return one(r, CmpOp::Like);
        }
        match phrase {
            "unknown" => mk(CmpOp::IsNull, vec![]),
            "known" => mk(CmpOp::IsNotNull, vec![]),
            _ => None,
        }
    }

    pub(super) fn question_start(prompt: &str) -> Option<usize> {
        match prompt.rfind("\nQ: ") {
            Some(i) => Some(i + 1),
            None => prompt.starts_with("Q: ").then_some(0),
        }
    }

    pub(super) fn question_line(prompt: &str) -> &str {
        match question_start(prompt) {
            Some(i) => {
                let rest = &prompt[i + 3..];
                match rest.find("\nA:") {
                    Some(j) => rest[..j].trim(),
                    None => rest.trim(),
                }
            }
            None => prompt.trim(),
        }
    }

    pub(super) fn parse_task_outcome(prompt: &str) -> ParseOutcome {
        let q = question_line(prompt);
        let parsed = parse_list_keys(q)
            .or_else(|| parse_fetch_attr(q))
            .or_else(|| parse_check_filter(q))
            .or_else(|| parse_fetch_attr_batch(q))
            .or_else(|| parse_fetch_grid_batch(q))
            .or_else(|| parse_filter_keys_batch(q));
        if let Some(t) = parsed {
            return ParseOutcome::Parsed(t);
        }
        // No family decoded; classify by marker so callers can tell a garbled
        // operator prompt apart from an ordinary NL question.
        if q.starts_with("List the ") && q.contains(" of every ") && q.contains(". Answer with") {
            return ParseOutcome::Malformed("list-keys");
        }
        if q.starts_with("For the ") && q.contains(" identified by ") {
            return ParseOutcome::Malformed("per-key fetch/filter");
        }
        if q.starts_with("For each ") && q.contains(" identified by ") {
            return ParseOutcome::Malformed("batched fetch/filter");
        }
        ParseOutcome::Unrecognized
    }

    fn parse_list_keys(q: &str) -> Option<TaskIntent> {
        let rest = q.strip_prefix("List the ")?;
        let (head, tail) = rest.split_once(" of every ")?;
        let key_attr = head.trim().to_string();
        // tail: `<relation>[ whose <cond>][, excluding: …]. Answer with …`.
        // The "Answer with" marker is mandatory: it is what distinguishes an
        // operator prompt from an NL question that also starts with "List
        // the … of every …" (those go through the QA path instead).
        let (body, _) = tail.split_once(". Answer with")?;
        let body = body.trim();
        // Offset-page form: `…, starting after the first N results`.
        if let Some((b, off)) = body.split_once(", starting after the first ") {
            let offset: usize = off.strip_suffix(" results")?.trim().parse().ok()?;
            let (relation, condition) = match b.split_once(" whose ") {
                Some((r, c)) => (r.trim().to_string(), Some(condition_parse(c)?)),
                None => (b.trim().to_string(), None),
            };
            if relation.is_empty() || key_attr.is_empty() {
                return None;
            }
            return Some(TaskIntent::ListKeysPage {
                relation,
                key_attr,
                condition,
                offset,
            });
        }
        let (body, exclude) = match body.split_once(", excluding: ") {
            Some((b, ex)) => (
                b,
                Arc::new(
                    ex.split("; ")
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect(),
                ),
            ),
            None => (body, Arc::new(Vec::new())),
        };
        let (relation, condition) = match body.split_once(" whose ") {
            Some((r, c)) => (r.trim().to_string(), Some(condition_parse(c)?)),
            None => (body.trim().to_string(), None),
        };
        if relation.is_empty() || key_attr.is_empty() {
            return None;
        }
        Some(TaskIntent::ListKeys {
            relation,
            key_attr,
            condition,
            exclude,
        })
    }

    fn parse_fetch_attr(q: &str) -> Option<TaskIntent> {
        let rest = q.strip_prefix("For the ")?;
        let (relation, rest) = rest.split_once(" identified by ")?;
        let (key_attr, rest) = rest.split_once(" '")?;
        let (key, rest) = rest.split_once("', what is its ")?;
        let attribute = rest.split('?').next()?.trim().to_string();
        Some(TaskIntent::FetchAttr {
            relation: relation.trim().to_string(),
            key_attr: key_attr.trim().to_string(),
            key: key.to_string(),
            attribute,
        })
    }

    fn parse_fetch_attr_batch(q: &str) -> Option<TaskIntent> {
        let rest = q.strip_prefix("For each ")?;
        let (relation, rest) = rest.split_once(" identified by ")?;
        let (key_attr, rest) = rest.split_once(" listed below, what is its ")?;
        let (attribute, body) = rest.split_once(&format!("? {FETCH_BATCH_MARKER}\n"))?;
        Some(TaskIntent::FetchAttrBatch {
            relation: relation.trim().to_string(),
            key_attr: key_attr.trim().to_string(),
            keys: parse_key_lines(body)?,
            attribute: attribute.trim().to_string(),
        })
    }

    fn parse_fetch_grid_batch(q: &str) -> Option<TaskIntent> {
        let rest = q.strip_prefix("For each ")?;
        let (relation, rest) = rest.split_once(" identified by ")?;
        let (key_attr, rest) = rest.split_once(" listed below, what are its ")?;
        let (attributes, body) = rest.split_once(&format!("? {FETCH_GRID_MARKER}\n"))?;
        let attributes: Vec<String> = attributes
            .split(" / ")
            .map(|a| a.trim().to_string())
            .collect();
        if attributes.iter().any(String::is_empty) {
            return None;
        }
        Some(TaskIntent::FetchGridBatch {
            relation: relation.trim().to_string(),
            key_attr: key_attr.trim().to_string(),
            keys: parse_key_lines(body)?,
            attributes,
        })
    }

    fn parse_filter_keys_batch(q: &str) -> Option<TaskIntent> {
        let rest = q.strip_prefix("For each ")?;
        let (relation, rest) = rest.split_once(" identified by ")?;
        let (key_attr, rest) = rest.split_once(" listed below, is its ")?;
        let (question, body) = rest.split_once(&format!("? {FILTER_BATCH_MARKER}\n"))?;
        // `question` = `<attribute> <phrase>`; longest attribute first, as in
        // the single-key filter parser.
        let words: Vec<&str> = question.split(' ').collect();
        for split in (1..words.len()).rev() {
            let attribute = words[..split].join(" ");
            let phrase = words[split..].join(" ");
            if let Some(mut c) = parse_phrase(&phrase) {
                c.attribute = attribute;
                return Some(TaskIntent::FilterKeysBatch {
                    relation: relation.trim().to_string(),
                    key_attr: key_attr.trim().to_string(),
                    keys: parse_key_lines(body)?,
                    condition: c,
                });
            }
        }
        None
    }

    fn parse_check_filter(q: &str) -> Option<TaskIntent> {
        let rest = q.strip_prefix("For the ")?;
        let (relation, rest) = rest.split_once(" identified by ")?;
        let (key_attr, rest) = rest.split_once(" '")?;
        let (key, rest) = rest.split_once("', is its ")?;
        let question = rest.split("? Answer").next()?;
        // question = `<attribute> <phrase>`; the attribute is the first token
        // run until a known phrase start. Try longest attribute first.
        let words: Vec<&str> = question.split(' ').collect();
        for split in (1..words.len()).rev() {
            let attribute = words[..split].join(" ");
            let phrase = words[split..].join(" ");
            if let Some(mut c) = parse_phrase(&phrase) {
                c.attribute = attribute;
                return Some(TaskIntent::CheckFilter {
                    relation: relation.trim().to_string(),
                    key_attr: key_attr.trim().to_string(),
                    key: key.to_string(),
                    condition: c,
                });
            }
        }
        None
    }
}
