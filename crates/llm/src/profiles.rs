//! Model profiles: the four LLMs of the paper's evaluation (§5 "Setup").
//!
//! Each profile is a parameter vector for the simulator's noise channels,
//! calibrated so the *shape* of the paper's Tables 1–2 reproduces:
//!
//! | model   | paper's finding                                   | main dials |
//! |---------|---------------------------------------------------|------------|
//! | Flan    | −47.4% cardinality: misses half the rows          | low recall, tiny context window |
//! | TK      | −43.7%: slightly better than Flan                 | low recall, tiny context window |
//! | GPT-3   | +1.0%: near-perfect counts, slight over-generation| high recall, hallucination adds rows |
//! | ChatGPT | −19.5% but best content accuracy                  | good recall, verbose but accurate |
//!
//! The absolute values are not the target (our substrate is a simulator);
//! the ordering and rough magnitudes are.

/// Parameter vector of one simulated model.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelProfile {
    /// Identifier (`flan`, `tk`, `gpt3`, `chatgpt`).
    pub name: String,
    /// Reported parameter count (cosmetic, shown in reports).
    pub params: String,
    /// Deterministic noise seed; combined with prompt hashes.
    pub seed: u64,
    /// Context window in tokens; prompts are truncated to this.
    pub context_window: usize,
    /// Recall probability for the *most* popular entity of a type.
    pub recall_top: f64,
    /// Recall probability for the *least* popular entity (linear in
    /// popularity between the two).
    pub recall_floor: f64,
    /// Probability of answering "Unknown" for a fact the store contains.
    pub unknown_rate: f64,
    /// Probability a remembered fact value is wrong.
    pub value_error_rate: f64,
    /// Relative error applied to wrong numeric values.
    pub value_rel_err: f64,
    /// Probability of inventing extra entities per list page.
    pub hallucination_rate: f64,
    /// Probability of fabricating a value for an entity the store does not
    /// know at all (instead of admitting "Unknown").
    pub fabrication_rate: f64,
    /// Probability an entity-valued answer uses an alias instead of the
    /// canonical name.
    pub alias_rate: f64,
    /// Probability a code-labelled context settles on a non-canonical code
    /// standard (the "IT" vs "ITA" join breaker, §5).
    pub code_drift: f64,
    /// Probability of non-plain number/date formats in answers.
    pub format_noise: f64,
    /// Probability a boolean filter answer flips.
    pub filter_flip_rate: f64,
    /// Extra flip probability when a condition is evaluated inside a
    /// combined (pushed-down) list prompt — the paper's observation that
    /// "combining too many prompts leads to complex questions that have
    /// lower accuracy than simple ones" (§6).
    pub combined_condition_penalty: f64,
    /// Relative error of arithmetic the model performs itself (QA
    /// aggregates; LLMs "fail with numerical comparisons", §3).
    pub arithmetic_rel_err: f64,
    /// Arithmetic error multiplier under chain-of-thought prompting
    /// (Table 2 shows CoT *hurt* aggregates: 13% vs 20%).
    pub cot_arithmetic_factor: f64,
    /// Probability of dropping a row from a QA answer (models tire of
    /// long enumerations).
    pub qa_row_dropout: f64,
    /// Probability that the join hop of a one-shot NL question fails for a
    /// row (multi-hop reasoning is hard in a single completion; Table 2
    /// reports 8% for `T_M` joins and 0% with CoT).
    pub qa_join_dropout: f64,
    /// Items returned per list page before the caller must ask for more.
    pub list_page_size: usize,
    /// Whether answers are wrapped in chatty prose.
    pub verbose: bool,
    /// Base latency per prompt in virtual milliseconds.
    pub latency_ms: u64,
    /// Additional latency per completion token, virtual milliseconds.
    pub latency_per_token_ms: u64,
}

impl ModelProfile {
    /// Recall probability for an entity of the given popularity in [0, 1].
    pub fn recall_probability(&self, popularity: f64) -> f64 {
        let p = popularity.clamp(0.0, 1.0);
        (self.recall_floor + (self.recall_top - self.recall_floor) * p).clamp(0.0, 1.0)
    }

    /// Flan-T5-large: instruction-tuned 783M model. Small context and low
    /// recall produce the paper's large cardinality deficit.
    pub fn flan() -> Self {
        ModelProfile {
            name: "flan".into(),
            params: "783M".into(),
            seed: 0xF1A5,
            context_window: 512,
            recall_top: 0.26,
            recall_floor: 0.015,
            unknown_rate: 0.10,
            value_error_rate: 0.30,
            value_rel_err: 0.25,
            hallucination_rate: 0.10,
            fabrication_rate: 0.25,
            alias_rate: 0.70,
            code_drift: 0.90,
            format_noise: 0.35,
            filter_flip_rate: 0.18,
            combined_condition_penalty: 0.38,
            arithmetic_rel_err: 0.45,
            cot_arithmetic_factor: 1.3,
            qa_row_dropout: 0.35,
            qa_join_dropout: 0.95,
            list_page_size: 8,
            verbose: false,
            latency_ms: 40,
            latency_per_token_ms: 1,
        }
    }

    /// Tk-Instruct-large: 783M with positive/negative few-shot examples.
    /// Marginally better recall than Flan, same small context.
    pub fn tk() -> Self {
        ModelProfile {
            name: "tk".into(),
            params: "783M".into(),
            seed: 0x7C1E,
            context_window: 512,
            recall_top: 0.28,
            recall_floor: 0.02,
            unknown_rate: 0.09,
            value_error_rate: 0.28,
            value_rel_err: 0.22,
            hallucination_rate: 0.08,
            fabrication_rate: 0.22,
            alias_rate: 0.68,
            code_drift: 0.88,
            format_noise: 0.32,
            filter_flip_rate: 0.16,
            combined_condition_penalty: 0.34,
            arithmetic_rel_err: 0.40,
            cot_arithmetic_factor: 1.3,
            qa_row_dropout: 0.30,
            qa_join_dropout: 0.93,
            list_page_size: 8,
            verbose: false,
            latency_ms: 45,
            latency_per_token_ms: 1,
        }
    }

    /// InstructGPT-3 (175B): near-complete recall plus a tendency to keep
    /// generating — hallucinated rows slightly *over*-fill results (+1.0%
    /// in Table 1).
    pub fn gpt3() -> Self {
        ModelProfile {
            name: "gpt3".into(),
            params: "175B".into(),
            seed: 0x69B7,
            context_window: 4_096,
            recall_top: 1.0,
            recall_floor: 0.96,
            unknown_rate: 0.03,
            value_error_rate: 0.18,
            value_rel_err: 0.15,
            hallucination_rate: 0.10,
            fabrication_rate: 0.35,
            alias_rate: 0.20,
            code_drift: 0.20,
            format_noise: 0.30,
            filter_flip_rate: 0.10,
            combined_condition_penalty: 0.24,
            arithmetic_rel_err: 0.30,
            cot_arithmetic_factor: 1.2,
            qa_row_dropout: 0.12,
            qa_join_dropout: 0.85,
            list_page_size: 20,
            verbose: false,
            latency_ms: 200,
            latency_per_token_ms: 5,
        }
    }

    /// GPT-3.5-turbo (ChatGPT): best content accuracy, chat-style verbose
    /// answers, moderate recall loss on unpopular entities (−19.5% rows).
    pub fn chatgpt() -> Self {
        ModelProfile {
            name: "chatgpt".into(),
            params: "175B".into(),
            seed: 0xC4A7,
            context_window: 4_096,
            recall_top: 0.99,
            recall_floor: 0.72,
            unknown_rate: 0.04,
            value_error_rate: 0.08,
            value_rel_err: 0.10,
            hallucination_rate: 0.02,
            fabrication_rate: 0.15,
            alias_rate: 0.98,
            code_drift: 0.75,
            format_noise: 0.55,
            filter_flip_rate: 0.08,
            combined_condition_penalty: 0.22,
            arithmetic_rel_err: 0.15,
            cot_arithmetic_factor: 1.6,
            qa_row_dropout: 0.10,
            qa_join_dropout: 0.80,
            list_page_size: 15,
            verbose: true,
            latency_ms: 160,
            latency_per_token_ms: 4,
        }
    }

    /// All four evaluation profiles, in the paper's table order.
    pub fn all() -> Vec<ModelProfile> {
        vec![Self::flan(), Self::tk(), Self::gpt3(), Self::chatgpt()]
    }

    /// Looks a profile up by name: the paper's four, or `oracle`.
    pub fn by_name(name: &str) -> Option<ModelProfile> {
        Self::all()
            .into_iter()
            .chain([Self::oracle()])
            .find(|p| p.name.eq_ignore_ascii_case(name))
    }

    /// A noise-free profile for deterministic engine tests: perfect recall,
    /// exact values, plain formats.
    pub fn oracle() -> Self {
        ModelProfile {
            name: "oracle".into(),
            params: "n/a".into(),
            seed: 0,
            context_window: 1 << 20,
            recall_top: 1.0,
            recall_floor: 1.0,
            unknown_rate: 0.0,
            value_error_rate: 0.0,
            value_rel_err: 0.0,
            hallucination_rate: 0.0,
            fabrication_rate: 0.0,
            alias_rate: 0.0,
            code_drift: 0.0,
            format_noise: 0.0,
            filter_flip_rate: 0.0,
            combined_condition_penalty: 0.0,
            arithmetic_rel_err: 0.0,
            cot_arithmetic_factor: 1.0,
            qa_row_dropout: 0.0,
            qa_join_dropout: 0.0,
            list_page_size: 1000,
            verbose: false,
            latency_ms: 1,
            latency_per_token_ms: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recall_is_monotone_in_popularity() {
        for p in ModelProfile::all() {
            assert!(p.recall_probability(1.0) >= p.recall_probability(0.5));
            assert!(p.recall_probability(0.5) >= p.recall_probability(0.0));
            assert!(p.recall_probability(1.0) <= 1.0);
            assert!(p.recall_probability(0.0) >= 0.0);
        }
    }

    #[test]
    fn ordering_of_model_capability() {
        let flan = ModelProfile::flan();
        let tk = ModelProfile::tk();
        let gpt3 = ModelProfile::gpt3();
        let chat = ModelProfile::chatgpt();
        // Mean recall ordering mirrors Table 1's cardinality ordering.
        let mean = |p: &ModelProfile| (p.recall_top + p.recall_floor) / 2.0;
        assert!(mean(&flan) < mean(&tk));
        assert!(mean(&tk) < mean(&chat));
        assert!(mean(&chat) < mean(&gpt3));
        // ChatGPT has the most accurate values (Table 2 is measured on it).
        assert!(chat.value_error_rate < gpt3.value_error_rate);
        assert!(chat.value_error_rate < tk.value_error_rate);
    }

    #[test]
    fn lookup_by_name() {
        assert!(ModelProfile::by_name("ChatGPT").is_some());
        assert!(ModelProfile::by_name("gpt3").is_some());
        assert_eq!(
            ModelProfile::by_name("oracle"),
            Some(ModelProfile::oracle())
        );
        assert!(ModelProfile::by_name("claude").is_none());
    }

    #[test]
    fn oracle_is_noise_free() {
        let o = ModelProfile::oracle();
        assert_eq!(o.recall_probability(0.0), 1.0);
        assert_eq!(o.value_error_rate, 0.0);
        assert_eq!(o.format_noise, 0.0);
    }
}
