//! Nothing a model can say panics the engine (ROADMAP 3d, first slice).
//!
//! Every function between a completion and a typed cell — the answer
//! splitters of the batched protocols, the list and verdict parsers, the
//! cleaner — is fed arbitrary text: multi-byte characters, the U+001F the
//! sub-entry signatures use as a separator, empty and newline-only
//! answers, keys that are prefixes of one another, and the protocols' own
//! separators in the wrong places. The properties are "returns, with the
//! shape the caller indexes" — these are the values a typed cell
//! (`session/typed.rs`) keeps for the life of a session — and that a
//! numeric or boolean cell reads back as itself from its own rendering.

use galois_core::clean::{cell_value, key_row, normalise_text};
use galois_core::parse::{parse_boolean_answer, parse_list_answer, ListAnswer};
use galois_core::CleaningPolicy;
use galois_llm::intent::{split_batched_answer, split_grid_answer};
use galois_relational::{Column, DataType};
use proptest::prelude::*;

/// Model text: ASCII that the parsers give meaning to (digits, list
/// markers, `:` `,` `.` `/` `-`, quotes), whitespace of every width, the
/// unit separator, and characters of two, three and four bytes — `⌁` is
/// the grid protocol's own separator.
const TEXT: &str = "[a-cIisT0-9 :,.;/$~%_'\"()*•\n\t\r\u{1f}\u{a0}é東⌁🦀-]{0,24}";
/// Keys and attribute names: short, so that prefixes and repeats are
/// common, and possibly empty.
const NAME: &str = "[ab :⌁é\u{1f}]{0,3}";

const TYPES: [DataType; 5] = [
    DataType::Text,
    DataType::Int,
    DataType::Float,
    DataType::Bool,
    DataType::Date,
];

fn policies() -> [CleaningPolicy; 2] {
    [CleaningPolicy::default(), CleaningPolicy::disabled()]
}

/// An answer assembled the way a confused model would: some lines in the
/// protocol's `key: payload` / `key ⌁ attr: payload` shape, some noise,
/// in any order, `shape` choosing which.
fn assembled(keys: &[String], attrs: &[String], noise: &[String], mut shape: u64) -> String {
    let mut pick = |n: usize| {
        shape = shape
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (shape >> 33) as usize % n.max(1)
    };
    let mut lines = Vec::new();
    for payload in noise {
        let key = keys.get(pick(keys.len())).map_or("", String::as_str);
        let attr = attrs.get(pick(attrs.len())).map_or("", String::as_str);
        lines.push(match pick(4) {
            0 => payload.clone(),
            1 => format!("{key}: {payload}"),
            2 => format!("{key} ⌁ {attr}: {payload}"),
            _ => format!("  {key} ⌁ {attr}:{payload}"),
        });
    }
    lines.join(["\n", "\r\n", "\n\n"][pick(3)])
}

proptest! {
    #[test]
    fn the_answer_splitters_return_one_slot_per_asked_cell(
        keys in prop::collection::vec(NAME, 0..5),
        attrs in prop::collection::vec(NAME, 0..4),
        noise in prop::collection::vec(TEXT, 0..8),
        shape in any::<u64>(),
    ) {
        for answer in [assembled(&keys, &attrs, &noise, shape), noise.concat()] {
            let batched = split_batched_answer(&answer, &keys);
            prop_assert_eq!(batched.len(), keys.len());
            let grid = split_grid_answer(&answer, &keys, &attrs);
            prop_assert_eq!(grid.len(), keys.len() * attrs.len());
            // A payload is a piece of one answer line, never more.
            for payload in batched.iter().chain(&grid).flatten() {
                prop_assert!(answer.contains(payload));
                prop_assert!(!payload.contains('\n'));
            }
        }
    }

    #[test]
    fn the_parsers_and_the_cleaner_return_on_any_text(text in TEXT) {
        if let ListAnswer::Values(values) = parse_list_answer(&text) {
            prop_assert!(values.iter().all(|v| !v.is_empty() && text.contains(v)));
        }
        let _ = parse_boolean_answer(&text);
        let normalised = normalise_text(&text);
        prop_assert!(normalised.len() <= text.len() && !normalised.contains("  "));
        for policy in policies() {
            for (at, ty) in TYPES.into_iter().enumerate() {
                let cell = cell_value(&text, ty, &policy);
                prop_assert!(
                    cell.is_null() || cell.data_type() == Some(ty),
                    "{:?} as {}: {:?}", text, ty, cell
                );
                // The key's cell of a key's row, in every column position.
                let mut columns = vec![Column::nullable("other", DataType::Int); TYPES.len()];
                columns[at] = Column::new("k", ty);
                let row = key_row(&text, &columns, at, &policy);
                prop_assert_eq!(row.len(), columns.len());
                prop_assert!(row.iter().enumerate().all(|(i, v)| i == at || v.is_null()));
            }
        }
    }

    /// A typed cell is kept where its answer text used to be read: what
    /// it renders to must read back as the same cell. Compared in `Debug`
    /// form, where NaN equals itself and `Int(1)` is not `Float(1.0)`.
    #[test]
    fn numeric_and_boolean_cells_read_back_from_their_own_rendering(
        text in "[0-9 .,$~kmbnaeilotruyfs-]{0,12}",
        int in any::<i64>(),
        float in any::<f64>(),
    ) {
        for policy in policies() {
            for ty in [DataType::Int, DataType::Float, DataType::Bool] {
                for answer in [text.clone(), int.to_string(), float.to_string()] {
                    let cell = cell_value(&answer, ty, &policy);
                    let again = cell_value(&cell.render(), ty, &policy);
                    prop_assert_eq!(
                        format!("{again:?}"), format!("{cell:?}"),
                        "{:?} as {} under {:?}", answer, ty, policy
                    );
                }
            }
        }
    }
}
