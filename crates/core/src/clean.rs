//! Data cleaning and normalisation (paper §4): "we normalize every string
//! expressing a numerical value (say, 1k) into a number (1000). The
//! enforcing of type and domain constraints is a simple but crucial step
//! to limit the incorrect output due to model hallucinations."
//!
//! [`cell_value`] is workflow step (3) for one fetched cell — answer text
//! in, typed [`Value`] out — and the one function both retrieval engines
//! consume answers through; [`clean_to_type`] is its cleaning half, for raw
//! strings that are not answers (keys, baselines). Both run under a
//! [`CleaningPolicy`]; the policy's `normalise=false` setting is the
//! paper's implicit ablation (only strictly-formatted values survive),
//! reproduced by `ablation_cleaning`.
//!
//! The common answers — a plain decimal, an ISO date, a name with single
//! spaces — are cleaned in place: the value is a slice of the answer, the
//! number is parsed from that slice, and the only allocation is the
//! `String` a text cell keeps. Everything else (decorated numerals, long
//! dates, stray whitespace) takes the general path.
//!
//! Every answer is text from outside the program, so no function here
//! indexes or slices by position: the lints below hold that.

#![cfg_attr(
    not(test),
    deny(clippy::indexing_slicing, clippy::unreachable, clippy::panic)
)]

use crate::parse::value_span;
use galois_relational::{Column, DataType, Date, Value};
use std::borrow::Cow;

/// The cleaning stage's one switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CleaningPolicy {
    /// Normalise flexible formats ("2.8 million", "2,800,000", "May 8,
    /// 1961") and enforce basic domain constraints (finite numbers, sane
    /// magnitude). When off, only plainly-typed strings parse and no
    /// domain check runs.
    pub normalise: bool,
}

impl Default for CleaningPolicy {
    fn default() -> Self {
        CleaningPolicy { normalise: true }
    }
}

impl CleaningPolicy {
    /// The ablation policy: no normalisation, no domain checks.
    pub fn disabled() -> Self {
        CleaningPolicy { normalise: false }
    }
}

/// Workflow step (3) for one fetched cell: unwraps the answer
/// ([`crate::parse::parse_value_answer`]'s rules), cleans it to the
/// column's type and, for text, normalises it for joining
/// ([`normalise_text`]). An "Unknown"-style or unusable answer is SQL NULL.
pub fn cell_value(answer: &str, ty: DataType, policy: &CleaningPolicy) -> Value {
    value_span(answer)
        .and_then(|raw| clean(raw, ty, policy, |s| normalise_text(&s)))
        .unwrap_or(Value::Null)
}

/// The row a freshly listed key starts as: every cell NULL but the key's
/// own, which is the key cleaned to the key column's type (NULL when it
/// does not clean, or when `key_index` names no column — such a row is
/// dropped at materialisation).
pub fn key_row(
    key: &str,
    columns: &[Column],
    key_index: usize,
    policy: &CleaningPolicy,
) -> Vec<Value> {
    let mut row = vec![Value::Null; columns.len()];
    if let (Some(cell), Some(column)) = (row.get_mut(key_index), columns.get(key_index)) {
        *cell = clean_to_type(key, column.data_type, policy).unwrap_or(Value::Null);
    }
    row
}

/// Cleans a raw answer string into a value of the expected type.
/// `None` means the cell is unusable (becomes SQL NULL).
pub fn clean_to_type(raw: &str, ty: DataType, policy: &CleaningPolicy) -> Option<Value> {
    clean(raw, ty, policy, |s| s.into_owned())
}

/// [`clean_to_type`], with the final form of a text cell left to the
/// caller (`text` receives the whitespace-collapsed string).
fn clean(
    raw: &str,
    ty: DataType,
    policy: &CleaningPolicy,
    text: impl FnOnce(Cow<'_, str>) -> String,
) -> Option<Value> {
    let s = collapse_whitespace(raw);
    if s.is_empty() || s.eq_ignore_ascii_case("unknown") || s.eq_ignore_ascii_case("n/a") {
        return None;
    }
    match ty {
        DataType::Text => Some(Value::Text(text(s))),
        DataType::Int => {
            let n = parse_number(&s, policy)?;
            if policy.normalise && !(n.is_finite() && n.abs() < 9.2e18) {
                return None;
            }
            Some(Value::Int(n.round() as i64))
        }
        DataType::Float => {
            let n = parse_number(&s, policy)?;
            if policy.normalise && !n.is_finite() {
                return None;
            }
            Some(Value::Float(n))
        }
        DataType::Bool => {
            let is_any = |words: [&str; 3]| words.iter().any(|w| s.eq_ignore_ascii_case(w));
            if is_any(["yes", "true", "1"]) {
                Some(Value::Bool(true))
            } else if is_any(["no", "false", "0"]) {
                Some(Value::Bool(false))
            } else {
                None
            }
        }
        DataType::Date => parse_date(&s, policy).map(Value::Date),
    }
}

/// The words of `s` joined by single spaces — `s` itself when it already
/// reads that way, which answers nearly always do.
fn collapse_whitespace(s: &str) -> Cow<'_, str> {
    // Collapsed form: no whitespace but single spaces between words.
    // `after_space` starts true so that a leading space counts as a run.
    let mut after_space = true;
    let mut single = |c: char| {
        let space = c.is_whitespace();
        let single = !space || (c == ' ' && !after_space);
        after_space = space;
        single
    };
    // An ASCII byte is a whole character: the walk reads bytes up to the
    // first one ≥ 0x80 and decodes UTF-8 only from there.
    let (ascii, rest) = s.split_at(s.bytes().position(|b| !b.is_ascii()).unwrap_or(s.len()));
    let collapsed = ascii.bytes().all(|b| single(char::from(b))) && rest.chars().all(single);
    if collapsed && (s.is_empty() || !after_space) {
        Cow::Borrowed(s)
    } else {
        Cow::Owned(s.split_whitespace().collect::<Vec<_>>().join(" "))
    }
}

/// Parses a number from flexible English renderings.
pub fn parse_number(raw: &str, policy: &CleaningPolicy) -> Option<f64> {
    let s = raw.trim();
    // A plain decimal (`[-]digits[.digits]`) has nothing to lower-case,
    // strip or ungroup: under either policy it parses as it stands.
    if !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_digit() || b == b'.' || b == b'-')
    {
        return s.parse().ok();
    }
    let lower = s.to_ascii_lowercase();
    if !policy.normalise {
        return lower.parse().ok();
    }
    let mut s = lower.as_str();
    for prefix in [
        "about",
        "approximately",
        "around",
        "roughly",
        "~",
        "almost",
        "nearly",
    ] {
        if let Some(rest) = s.strip_prefix(prefix) {
            s = rest.trim();
        }
    }
    // Strip currency-ish decorations.
    let s = s
        .trim_start_matches(['$', '€', '£'])
        .trim_end_matches(" people")
        .trim_end_matches(" credits")
        .trim();

    // Word multipliers: "2.8 million", "1.2 billion", "5 thousand".
    for (word, mult) in [
        (" million", 1e6),
        (" billion", 1e9),
        (" thousand", 1e3),
        (" trillion", 1e12),
    ] {
        if let Some(head) = s.strip_suffix(word) {
            return parse_grouped(head).map(|v| v * mult);
        }
    }
    // Suffix multipliers: "500k", "2.8m", "1.2bn", "3b".
    for (suffix, mult) in [("bn", 1e9), ("k", 1e3), ("m", 1e6), ("b", 1e9)] {
        if let Some(head) = s.strip_suffix(suffix) {
            // Avoid eating the end of a word ("berlin" ends with 'n').
            if head
                .chars()
                .last()
                .is_some_and(|c| c.is_ascii_digit() || c == '.')
            {
                return parse_grouped(head).map(|v| v * mult);
            }
        }
    }
    parse_grouped(s)
}

fn parse_grouped(s: &str) -> Option<f64> {
    let s = s.trim();
    if s.is_empty() {
        return None;
    }
    // Remove thousands separators only when they look like grouping.
    if looks_grouped(s) {
        let ungrouped: String = s.chars().filter(|c| *c != ',').collect();
        ungrouped.parse().ok()
    } else {
        s.parse().ok()
    }
}

fn looks_grouped(s: &str) -> bool {
    if !s.contains(',') {
        return false;
    }
    let unsigned = s.strip_prefix('-').unwrap_or(s);
    let mut parts = unsigned.split(',');
    if parts
        .next()
        .is_none_or(|head| head.is_empty() || head.len() > 3)
    {
        return false;
    }
    parts.all(|p| {
        p.len() == 3 && p.chars().all(|c| c.is_ascii_digit())
            || (p.contains('.')
                && p.split('.')
                    .next()
                    .is_some_and(|h| h.len() == 3 && h.chars().all(|c| c.is_ascii_digit())))
    })
}

const MONTHS: [&str; 12] = [
    "january",
    "february",
    "march",
    "april",
    "may",
    "june",
    "july",
    "august",
    "september",
    "october",
    "november",
    "december",
];

/// Parses a date from ISO (`1961-05-08`), US (`05/08/1961`) or long
/// (`May 8, 1961`) form.
pub fn parse_date(raw: &str, policy: &CleaningPolicy) -> Option<Date> {
    let s = raw.trim();
    // ISO always accepted (that is a "plainly typed" rendering).
    if let Ok(d) = Date::parse_iso(s) {
        return Some(d);
    }
    if !policy.normalise {
        return None;
    }
    // US form MM/DD/YYYY.
    let parts: Vec<&str> = s.split('/').collect();
    if let [m, d, y] = parts[..] {
        let m: u8 = m.parse().ok()?;
        let d: u8 = d.parse().ok()?;
        let y: i32 = y.parse().ok()?;
        return Date::new(y, m, d).ok();
    }
    // Long form "May 8, 1961".
    let lower = s.to_ascii_lowercase();
    for (i, month) in MONTHS.iter().enumerate() {
        if let Some(rest) = lower.strip_prefix(month) {
            let rest = rest.trim().trim_end_matches('.');
            let (day_s, year_s) = rest.split_once(',')?;
            let d: u8 = day_s.trim().parse().ok()?;
            let y: i32 = year_s.trim().parse().ok()?;
            return Date::new(y, (i + 1) as u8, d).ok();
        }
    }
    None
}

/// Normalises a text cell for joining/matching: trims, collapses
/// whitespace, strips enclosing quotes and trailing punctuation.
pub fn normalise_text(raw: &str) -> String {
    normalised(raw).into_owned()
}

/// [`normalise_text`], borrowing from `raw` when collapsing whitespace
/// changes nothing.
pub(crate) fn normalised(raw: &str) -> Cow<'_, str> {
    collapse_whitespace(
        raw.trim()
            .trim_end_matches(['.', ';'])
            .trim_matches(|c: char| c == '"' || c == '\''),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::tests::reference_parse_value_answer;
    use proptest::prelude::*;

    fn on() -> CleaningPolicy {
        CleaningPolicy::default()
    }

    // The parse → clean → normalise chain as the retrieval engines spelled
    // it out before `cell_value`, copy for copy: the reference the
    // equivalence properties below compare against.

    fn reference_normalise_whitespace(s: &str) -> String {
        s.split_whitespace().collect::<Vec<_>>().join(" ")
    }

    fn reference_normalise_text(raw: &str) -> String {
        reference_normalise_whitespace(
            raw.trim()
                .trim_end_matches(['.', ';'])
                .trim_matches(|c: char| c == '"' || c == '\''),
        )
    }

    fn reference_parse_grouped(s: &str) -> Option<f64> {
        let s = s.trim();
        if s.is_empty() {
            return None;
        }
        let cleaned: String = if looks_grouped(s) {
            s.chars().filter(|c| *c != ',').collect()
        } else {
            s.to_string()
        };
        cleaned.parse::<f64>().ok()
    }

    fn reference_parse_number(raw: &str, policy: &CleaningPolicy) -> Option<f64> {
        let mut s = raw.trim().to_ascii_lowercase();
        if !policy.normalise {
            return s.parse::<f64>().ok();
        }
        for prefix in [
            "about",
            "approximately",
            "around",
            "roughly",
            "~",
            "almost",
            "nearly",
        ] {
            if let Some(rest) = s.strip_prefix(prefix) {
                s = rest.trim().to_string();
            }
        }
        let s = s
            .trim_start_matches(['$', '€', '£'])
            .trim_end_matches(" people")
            .trim_end_matches(" credits")
            .trim()
            .to_string();
        for (word, mult) in [
            (" million", 1e6),
            (" billion", 1e9),
            (" thousand", 1e3),
            (" trillion", 1e12),
        ] {
            if let Some(head) = s.strip_suffix(word) {
                return reference_parse_grouped(head).map(|v| v * mult);
            }
        }
        for (suffix, mult) in [("bn", 1e9), ("k", 1e3), ("m", 1e6), ("b", 1e9)] {
            if let Some(head) = s.strip_suffix(suffix) {
                if head
                    .chars()
                    .last()
                    .is_some_and(|c| c.is_ascii_digit() || c == '.')
                {
                    return reference_parse_grouped(head).map(|v| v * mult);
                }
            }
        }
        reference_parse_grouped(&s)
    }

    fn reference_clean_to_type(raw: &str, ty: DataType, policy: &CleaningPolicy) -> Option<Value> {
        let s = reference_normalise_whitespace(raw);
        if s.is_empty() || s.eq_ignore_ascii_case("unknown") || s.eq_ignore_ascii_case("n/a") {
            return None;
        }
        match ty {
            DataType::Text => Some(Value::Text(s)),
            DataType::Int => {
                let n = reference_parse_number(&s, policy)?;
                if policy.normalise && !(n.is_finite() && n.abs() < 9.2e18) {
                    return None;
                }
                Some(Value::Int(n.round() as i64))
            }
            DataType::Float => {
                let n = reference_parse_number(&s, policy)?;
                if policy.normalise && !n.is_finite() {
                    return None;
                }
                Some(Value::Float(n))
            }
            DataType::Bool => match s.to_ascii_lowercase().as_str() {
                "yes" | "true" | "1" => Some(Value::Bool(true)),
                "no" | "false" | "0" => Some(Value::Bool(false)),
                _ => None,
            },
            DataType::Date => parse_date(&s, policy).map(Value::Date),
        }
    }

    fn reference_cell_value(answer: &str, ty: DataType, policy: &CleaningPolicy) -> Value {
        reference_parse_value_answer(answer)
            .and_then(|raw| reference_clean_to_type(&raw, ty, policy))
            .map(|v| match v {
                Value::Text(s) => Value::Text(reference_normalise_text(&s)),
                other => other,
            })
            .unwrap_or(Value::Null)
    }

    const TYPES: [DataType; 5] = [
        DataType::Text,
        DataType::Int,
        DataType::Float,
        DataType::Bool,
        DataType::Date,
    ];

    /// Asserts the new functions equal the reference chain on `input`,
    /// for every type under both policies. `Value`'s own equality calls
    /// `Int(1)` and `Float(1.0)` equal and NaN unequal to itself, so the
    /// comparison is on the `Debug` form: variant, sign of zero and all.
    fn assert_matches_reference(input: &str) {
        for policy in [CleaningPolicy::default(), CleaningPolicy::disabled()] {
            for ty in TYPES {
                let context = format!("{input:?} as {ty} under {policy:?}");
                assert_eq!(
                    format!("{:?}", cell_value(input, ty, &policy)),
                    format!("{:?}", reference_cell_value(input, ty, &policy)),
                    "cell_value({context})"
                );
                let cleaned = reference_clean_to_type(input, ty, &policy);
                assert_eq!(
                    format!("{:?}", clean_to_type(input, ty, &policy)),
                    format!("{cleaned:?}"),
                    "clean_to_type({context})"
                );
                // The key cell of a key's row, in every column position.
                let columns = [
                    Column::nullable("other", DataType::Int),
                    Column::new("k", ty),
                ];
                let row = key_row(input, &columns, 1, &policy);
                assert_eq!(
                    format!("{row:?}"),
                    format!("{:?}", [Value::Null, cleaned.unwrap_or(Value::Null)]),
                    "key_row({context})"
                );
                // A key index past the columns leaves every cell NULL.
                assert_eq!(
                    format!("{:?}", key_row(input, &columns, 2, &policy)),
                    format!("{:?}", [Value::Null, Value::Null]),
                    "key_row({context}) at index 2"
                );
            }
            assert_eq!(
                parse_number(input, &policy).map(f64::to_bits),
                reference_parse_number(input, &policy).map(f64::to_bits),
                "parse_number({input:?}) under {policy:?}"
            );
        }
        assert_eq!(normalise_text(input), reference_normalise_text(input));
        assert_eq!(
            crate::parse::parse_value_answer(input),
            reference_parse_value_answer(input)
        );
    }

    /// Answer bodies worth wrapping: plain and decorated numerals, the
    /// "Unknown" family in mixed case, booleans, dates, names.
    const BODIES: [&str; 58] = [
        "12",
        "-0",
        "0",
        "3.",
        ".5",
        "007",
        "1e5",
        "-3.5",
        "2800000",
        "2,800,000",
        "12,345.67",
        "1,23",
        "2.8 million",
        "1.2 billion",
        "5 thousand",
        "3 trillion",
        "500k",
        "2.8M",
        "1.2bn",
        "3b",
        "about 1,234",
        "Approximately 40",
        "~42",
        "nearly $5 million",
        "€1,000",
        "120 credits",
        "3000 people",
        "inf",
        "-inf",
        "nan",
        "NaN",
        "infinity",
        "9223372036854775807",
        "9300000000000000000",
        "1e30",
        "-1e400",
        "1-2",
        "--5",
        "1.2.3",
        "+7",
        "Unknown",
        "unknown",
        "UNKNOWN to me",
        "N/A",
        "n/a",
        "None",
        "I don't know",
        "i DON'T know",
        "I'm not sure",
        "yes",
        "No",
        "TRUE",
        "1961-05-08",
        "05/08/1961",
        "May 8, 1961",
        "02/30/1961",
        "New York",
        "Isla Verde",
    ];

    #[test]
    fn cell_value_matches_the_reference_chain_on_every_listed_form() {
        for body in BODIES {
            assert_matches_reference(body);
            assert_matches_reference(&format!("The population of Rome is {body}."));
            assert_matches_reference(&format!("Its value is {body}"));
        }
        for odd in [
            "",
            " ",
            ".",
            "...",
            "The  is ",
            "The x is .",
            "\u{a0}12\u{a0}",
            "New\u{a0}York",
            "New \u{a0}York",
            "a\u{2003}b",
            "\u{b}7\u{b}",
            "'Rome'.",
            "\"Rome\";",
            "Rome .",
            "Rome. ;",
            "\"\"",
            "İstanbul is İ",
            "the é is è",
        ] {
            assert_matches_reference(odd);
        }
    }

    fn body() -> BoxedStrategy<String> {
        prop_oneof![
            prop::sample::select(BODIES.to_vec()).prop_map(str::to_string),
            "-?[0-9]{0,20}",
            "-?[0-9]{1,9}\\.[0-9]{0,6}",
            "[0-9]{1,3},[0-9]{3}",
            "-?[0-9]{1,3},[0-9]{3},[0-9]{2,3}\\.?[0-9]{0,2}",
            "[-+~$]?[0-9.,]{1,8} ?[kmbn]{0,2}",
            "[A-Za-z]{1,8} ?[A-Za-z]{0,8}",
        ]
        .boxed()
    }

    /// `collapse_whitespace` as it was before its ASCII byte walk.
    fn collapse_by_chars(s: &str) -> Cow<'_, str> {
        let mut after_space = true;
        let collapsed = s.chars().all(|c| {
            let space = c.is_whitespace();
            let single = !space || (c == ' ' && !after_space);
            after_space = space;
            single
        });
        if collapsed && (s.is_empty() || !after_space) {
            Cow::Borrowed(s)
        } else {
            Cow::Owned(s.split_whitespace().collect::<Vec<_>>().join(" "))
        }
    }

    fn padding() -> BoxedStrategy<String> {
        "[ \t\n\u{a0}]{0,2}".boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1500))]

        #[test]
        fn cell_value_matches_the_reference_chain_on_decorated_answers(
            lead in padding(),
            open in "[\"']?",
            body in body(),
            inner in "[ \t\u{a0}]{0,2}",
            close in "[\"'.;]{0,2}",
            trail in padding(),
            sentence in any::<bool>(),
        ) {
            let core = format!("{open}{body}{inner}{close}");
            let answer = if sentence {
                format!("{lead}The population of Rome is {core}{trail}")
            } else {
                format!("{lead}{core}{trail}")
            };
            assert_matches_reference(&answer);
        }

        /// The ASCII byte walk reads a text as the char walk it replaced
        /// did, whitespace outside ASCII (U+0085, U+00A0, U+3000, …) and
        /// ASCII controls that are not whitespace included.
        #[test]
        fn collapse_whitespace_matches_the_char_walk(
            parts in prop::collection::vec(
                prop::sample::select(vec![
                    " ", "  ", "\t", "\n", "\u{b}", "\u{c}", "\r", "\u{1c}", "\u{85}",
                    "\u{a0}", "\u{2009}", "\u{3000}", "a", "Rome", "é", "東京",
                ]),
                0..12,
            ),
            text in "[\t-\r -~\u{1c}-\u{1f}\u{85}\u{a0}\u{1680}\u{2000}-\u{200b}\u{2028}\u{2029}\u{202f}\u{205f}\u{3000}é東]{0,16}",
        ) {
            for s in [parts.concat(), text] {
                prop_assert_eq!(collapse_whitespace(&s), collapse_by_chars(&s));
            }
        }

        #[test]
        fn cell_value_matches_the_reference_chain_on_arbitrary_unicode(
            answer in "[ -~\u{a0}-\u{24f}\u{2000}-\u{206f}\u{3000}-\u{30ff}\u{1f600}-\u{1f64f}]{0,16}",
        ) {
            // Total (never panics, multi-byte boundaries included) and
            // still equal to the reference.
            assert_matches_reference(&answer);
        }
    }

    #[test]
    fn numbers_in_all_formats() {
        let p = on();
        assert_eq!(parse_number("2800000", &p), Some(2_800_000.0));
        assert_eq!(parse_number("2,800,000", &p), Some(2_800_000.0));
        assert_eq!(parse_number("2.8 million", &p), Some(2_800_000.0));
        assert_eq!(parse_number("500k", &p), Some(500_000.0));
        assert_eq!(parse_number("1.2 billion", &p), Some(1_200_000_000.0));
        assert_eq!(parse_number("about 1,234", &p), Some(1234.0));
        assert_eq!(parse_number("~42", &p), Some(42.0));
        assert_eq!(parse_number("-3.5", &p), Some(-3.5));
        assert_eq!(parse_number("1k", &p), Some(1000.0));
    }

    #[test]
    fn non_numbers_rejected() {
        let p = on();
        assert_eq!(parse_number("Rome", &p), None);
        assert_eq!(parse_number("", &p), None);
        assert_eq!(parse_number("berlin", &p), None); // 'n' suffix guard
        assert_eq!(parse_number("12abc", &p), None);
    }

    #[test]
    fn grouped_detection_is_strict() {
        let p = on();
        // "1,23" is not thousand-grouping → unparseable.
        assert_eq!(parse_number("1,23", &p), None);
        assert_eq!(parse_number("12,345.67", &p), Some(12345.67));
    }

    #[test]
    fn cleaning_off_only_accepts_plain() {
        let p = CleaningPolicy::disabled();
        assert_eq!(parse_number("2800000", &p), Some(2_800_000.0));
        assert_eq!(parse_number("2,800,000", &p), None);
        assert_eq!(parse_number("2.8 million", &p), None);
    }

    #[test]
    fn dates_in_all_formats() {
        let p = on();
        let expect = Date::new(1961, 5, 8).unwrap();
        assert_eq!(parse_date("1961-05-08", &p), Some(expect));
        assert_eq!(parse_date("05/08/1961", &p), Some(expect));
        assert_eq!(parse_date("May 8, 1961", &p), Some(expect));
        assert_eq!(parse_date("not a date", &p), None);
        // Invalid calendar dates rejected.
        assert_eq!(parse_date("02/30/1961", &p), None);
    }

    #[test]
    fn dates_without_cleaning_are_iso_only() {
        let p = CleaningPolicy::disabled();
        assert!(parse_date("1961-05-08", &p).is_some());
        assert!(parse_date("May 8, 1961", &p).is_none());
    }

    #[test]
    fn clean_to_type_int_rounds_and_bounds() {
        let p = on();
        assert_eq!(
            clean_to_type("2.8 million", DataType::Int, &p),
            Some(Value::Int(2_800_000))
        );
        assert_eq!(clean_to_type("1e30", DataType::Int, &p), None);
        assert_eq!(clean_to_type("Unknown", DataType::Int, &p), None);
    }

    #[test]
    fn clean_to_type_text_normalises_whitespace() {
        let p = on();
        assert_eq!(
            clean_to_type("  New   York ", DataType::Text, &p),
            Some(Value::Text("New York".into()))
        );
    }

    #[test]
    fn clean_to_type_bool() {
        let p = on();
        assert_eq!(
            clean_to_type("Yes", DataType::Bool, &p),
            Some(Value::Bool(true))
        );
        assert_eq!(
            clean_to_type("no", DataType::Bool, &p),
            Some(Value::Bool(false))
        );
        assert_eq!(clean_to_type("maybe", DataType::Bool, &p), None);
    }

    #[test]
    fn normalise_text_strips_decorations() {
        assert_eq!(normalise_text("  'Rome'. "), "Rome");
        assert_eq!(normalise_text("New   York"), "New York");
    }
}
