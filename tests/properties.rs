//! Property-based integration tests across seeds: the corpus generator,
//! the prompt protocol and the cleaning stage must hold their invariants
//! for arbitrary worlds, not just seed 42.

use galois::core::clean::{clean_to_type, parse_number, CleaningPolicy};
use galois::core::parse::{parse_list_answer, ListAnswer};
use galois::dataset::{Scenario, WorldConfig};
use galois::llm::nlq;
use galois::relational::{DataType, Value};
use proptest::prelude::*;

fn small_config() -> WorldConfig {
    WorldConfig {
        countries: 6,
        cities: 12,
        airports: 6,
        singers: 6,
        concerts: 8,
        employees: 8,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every seed yields a suite whose 46 queries parse, plan, and return
    /// non-empty ground truth, and whose NL paraphrases round-trip.
    #[test]
    fn suite_invariants_hold_for_any_seed(seed in 0u64..10_000) {
        let s = Scenario::generate_with(seed, small_config());
        prop_assert_eq!(s.suite.len(), 46);
        for spec in &s.suite {
            let sql = spec.to_sql();
            let truth = s.database.execute(&sql)
                .map_err(|e| TestCaseError::fail(format!("q{}: {e}", spec.id)))?;
            prop_assert!(!truth.is_empty(), "q{} empty ground truth: {}", spec.id, sql);
            let question = spec.question();
            let parsed = nlq::parse_question(&question);
            prop_assert_eq!(parsed, Some(spec.to_intent()), "q{}", spec.id);
        }
    }

    /// The ground-truth DB and the knowledge store always agree on entity
    /// counts (same world, two views).
    #[test]
    fn db_and_knowledge_agree(seed in 0u64..10_000) {
        let s = Scenario::generate_with(seed, small_config());
        prop_assert_eq!(
            s.database.catalog().get("city").unwrap().len(),
            s.knowledge.entities_of_type("city").len()
        );
        prop_assert_eq!(
            s.database.catalog().get("country").unwrap().len(),
            s.knowledge.entities_of_type("country").len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The number cleaner never panics and is sign/magnitude-consistent
    /// with what it parses.
    #[test]
    fn cleaner_total_on_arbitrary_text(input in "[ -~]{0,40}") {
        let policy = CleaningPolicy::default();
        let _ = parse_number(&input, &policy);
        let _ = clean_to_type(&input, DataType::Int, &policy);
        let _ = clean_to_type(&input, DataType::Date, &policy);
        let _ = clean_to_type(&input, DataType::Text, &policy);
    }

    /// Rendered integers always survive the cleaning round-trip, in every
    /// simulator format.
    #[test]
    fn integers_roundtrip_through_all_formats(v in -1_000_000_000i64..1_000_000_000) {
        use galois::llm::noise::{render_number, NumberStyle};
        let policy = CleaningPolicy::default();
        for style in [
            NumberStyle::Plain,
            NumberStyle::Thousands,
            NumberStyle::SpelledMillions,
            NumberStyle::KSuffix,
            NumberStyle::Approximate,
        ] {
            let rendered = render_number(v as f64, style);
            let cleaned = clean_to_type(&rendered, DataType::Int, &policy);
            let Some(Value::Int(got)) = cleaned else {
                return Err(TestCaseError::fail(format!(
                    "{v} rendered as {rendered:?} did not clean back"
                )));
            };
            // Spelled forms round to the displayed precision; stay within
            // the evaluation's 5% tolerance.
            let tol = (v.abs() as f64 * 0.05).max(1.0);
            prop_assert!(
                ((got - v).abs() as f64) <= tol,
                "style {style:?}: {v} -> {rendered} -> {got}"
            );
        }
    }

    /// The list-answer parser never panics and never invents values that
    /// are not substrings of the answer.
    #[test]
    fn list_parser_is_conservative(input in "[ -~]{0,80}") {
        if let ListAnswer::Values(values) = parse_list_answer(&input) {
            for v in values {
                prop_assert!(!v.is_empty());
                prop_assert!(input.contains(v.trim_matches('"')) || input.contains(v),
                    "invented {v:?} from {input:?}");
            }
        }
    }
}
