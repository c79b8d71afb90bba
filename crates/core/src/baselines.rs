//! The paper's comparison methods (§5 "Setup"):
//!
//! * `T_M` — ask the NL paraphrase `t` of the query as a plain question
//!   and post-process the text into records;
//! * `T_C_M` — the same with an engineered chain-of-thought prompt whose
//!   fixed exemplar mirrors a logical-plan execution.
//!
//! The paper post-processed QA answers *manually* ("we split
//! comma-separated values, remove repeated values and punctuation");
//! [`crate::parse::extract_records`] mechanises exactly those steps so the
//! baselines run unattended.

use crate::parse::extract_records;
use crate::prompts::PromptBuilder;
use galois_llm::{LanguageModel, LlmClient};
use std::sync::Arc;

/// Which baseline flavour to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineKind {
    /// Plain NL question (`T_M`).
    Plain,
    /// Chain-of-thought prompt (`T_C_M`).
    ChainOfThought,
}

/// Result of a QA baseline run: the raw answer text and the extracted
/// records.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineResult {
    /// Raw completion text (the paper's `T_M` / `T_C_M` artifacts are
    /// text, not relations).
    pub text: String,
    /// Records extracted by the mechanised post-processing.
    pub records: Vec<Vec<String>>,
    /// Prompt tokens used.
    pub prompt_tokens: usize,
    /// Completion tokens used.
    pub completion_tokens: usize,
    /// Virtual milliseconds.
    pub virtual_ms: u64,
}

/// A QA baseline runner over one model.
pub struct QaBaseline {
    client: LlmClient,
    prompt_builder: PromptBuilder,
}

impl QaBaseline {
    /// Creates a runner for the model.
    pub fn new(model: Arc<dyn LanguageModel>) -> Self {
        let prompt_builder = PromptBuilder::for_model(model.name());
        QaBaseline {
            client: LlmClient::new(model),
            prompt_builder,
        }
    }

    /// Asks the question and extracts records.
    ///
    /// Accounting comes from the call's own [`galois_llm::BatchOutcome`]
    /// rather than global counter deltas, so concurrent `ask`s attribute
    /// tokens and virtual time to the right question.
    pub fn ask(&self, question: &str, kind: BaselineKind) -> BaselineResult {
        let prompt = match kind {
            BaselineKind::Plain => self.prompt_builder.question(question),
            BaselineKind::ChainOfThought => self.prompt_builder.question_cot(question),
        };
        let outcome = self.client.complete_outcome(&prompt);
        let Some(completion) = outcome.completions.into_iter().next() else {
            unreachable!("one completion per prompt");
        };
        let text = completion.text;
        BaselineResult {
            records: extract_records(&text),
            text,
            prompt_tokens: outcome.prompt_tokens,
            completion_tokens: outcome.completion_tokens,
            virtual_ms: outcome.virtual_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galois_dataset::Scenario;
    use galois_llm::{ModelProfile, SimLlm};

    fn baseline(profile: ModelProfile) -> (Scenario, QaBaseline) {
        let s = Scenario::generate(42);
        let model = Arc::new(SimLlm::new(s.knowledge.clone(), profile));
        let b = QaBaseline::new(model);
        (s, b)
    }

    #[test]
    fn oracle_plain_question_lists_cities() {
        let (s, b) = baseline(ModelProfile::oracle());
        let q = s.suite.iter().find(|q| q.id == 1).unwrap();
        let r = b.ask(&q.question(), BaselineKind::Plain);
        assert!(!r.records.is_empty(), "{}", r.text);
        // Every extracted record is a single key cell.
        assert!(r.records.iter().all(|rec| rec.len() == 1));
    }

    #[test]
    fn oracle_count_question_is_numeric() {
        let (s, b) = baseline(ModelProfile::oracle());
        let q = s.suite.iter().find(|q| q.id == 21).unwrap(); // COUNT(*) city
        let r = b.ask(&q.question(), BaselineKind::Plain);
        assert_eq!(r.records.len(), 1, "{}", r.text);
        let truth = s.database.execute(&q.to_sql()).unwrap();
        assert_eq!(r.records[0][0], truth.rows[0][0].render());
    }

    #[test]
    fn cot_prompt_differs_from_plain() {
        let (s, b) = baseline(ModelProfile::chatgpt());
        let q = s.suite.iter().find(|q| q.id == 23).unwrap(); // AVG population
        let plain = b.ask(&q.question(), BaselineKind::Plain);
        let cot = b.ask(&q.question(), BaselineKind::ChainOfThought);
        // Different prompts → independently noisy answers; both non-empty.
        assert!(!plain.text.is_empty());
        assert!(!cot.text.is_empty());
    }

    #[test]
    fn baseline_tracks_usage() {
        let (s, b) = baseline(ModelProfile::oracle());
        let r = b.ask(&s.suite[0].question(), BaselineKind::Plain);
        assert!(r.prompt_tokens > 0);
        assert!(r.virtual_ms > 0);
    }
}
