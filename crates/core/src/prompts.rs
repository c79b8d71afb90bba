//! Prompt construction (paper §4 "Prompts", Figure 4).
//!
//! Each logical operator renders to a question line via the protocol in
//! [`galois_llm::intent`]; this module wraps that line in a model-specific
//! preamble. GPT-style models get the paper's Figure 4 few-shot QA
//! preamble; instruction-tuned T5 models (Flan/Tk) get a compact
//! instruction, as the paper "construct\[s\] prompts appropriately for each
//! model".

use galois_llm::intent::{
    render_check_filter_parts, render_fetch_attr_parts, render_task, write_grid_question,
    Condition, TaskIntent,
};

/// The paper's Figure 4 preamble, verbatim.
pub const FIGURE4_PREAMBLE: &str = "\
I am a highly intelligent question answering bot. If you ask me a question \
that is rooted in truth, I will give you the short answer. If you ask me a \
question that is nonsense, trickery, or has no clear answer, I will respond \
with \"Unknown\". If the answer is numerical, I will return the number only.

Q: What is human life expectancy in the United States?
A: 78.
Q: Who was president of the United States in 1955?
A: Dwight D. Eisenhower.
Q: What is the capital of France?
A: Paris.
Q: What is a continent starting with letter O?
A: Oceania.
Q: Where were the 1992 Olympics held?
A: Barcelona.
Q: How many squigs are in a bonk?
A: Unknown
";

/// Compact instruction for small instruction-tuned models.
pub(crate) const INSTRUCT_PREAMBLE: &str = "\
Answer the question concisely and exactly. If the answer is unknown, say \
\"Unknown\".
";

/// A fixed, manually-crafted chain-of-thought exemplar used by the `T_C_M`
/// baseline (paper §5: "the CoT example in the prompt is fixed as how to
/// derive a decomposition automatically from t is an open problem").
pub(crate) const COT_EXEMPLAR: &str = "\
Q: List the name of every city whose mayor was elected after 2018.
A: Let's think step by step.
Step 1: list the cities I know: Rome, Paris, Berlin.
Step 2: for each city, find its mayor and the election year: Rome -> 2016, \
Paris -> 2020, Berlin -> 2021.
Step 3: keep the cities whose year is after 2018: Paris, Berlin.
The answer is: Paris, Berlin.
";

/// Builds full prompts for a given model family.
#[derive(Debug, Clone)]
pub struct PromptBuilder {
    preamble: &'static str,
    /// The static `"{preamble}\nQ: "` prefix, formatted once at
    /// construction: `task`/`question` run once per retrieval unit on the
    /// hot path, and re-rendering the few-shot preamble there is pure
    /// waste (measured by the `prompts` microbench in `crates/bench`).
    question_prefix: String,
}

impl PromptBuilder {
    /// Picks the preamble appropriate for the model (by profile name).
    pub fn for_model(model_name: &str) -> Self {
        let preamble = match model_name {
            "flan" | "tk" => INSTRUCT_PREAMBLE,
            _ => FIGURE4_PREAMBLE,
        };
        PromptBuilder {
            preamble,
            question_prefix: format!("{preamble}\nQ: "),
        }
    }

    /// Full prompt for one operator task.
    pub fn task(&self, intent: &TaskIntent) -> String {
        self.wrap(&render_task(intent))
    }

    /// Full prompt for one grid chunk, from borrowed keys and attribute
    /// names: byte-identical to [`PromptBuilder::task`] on the equivalent
    /// [`TaskIntent::FetchGridBatch`], whose render arm writes its question
    /// through the same [`write_grid_question`].
    pub(crate) fn grid(
        &self,
        relation: &str,
        key_attr: &str,
        keys: &[impl AsRef<str>],
        attributes: &[impl AsRef<str>],
    ) -> String {
        // Room for a chunk of a few keys and columns, so that the question
        // is usually written without a reallocation.
        let mut out = String::with_capacity(self.question_prefix.len() + 1024);
        out.push_str(&self.question_prefix);
        write_grid_question(&mut out, relation, key_attr, keys, attributes);
        out.push_str("\nA:");
        out
    }

    /// Full prompt for a plain NL question (QA baseline, `T_M`).
    pub fn question(&self, question: &str) -> String {
        self.wrap(question)
    }

    /// Appends a question to the precomputed prefix with one exact-size
    /// allocation.
    fn wrap(&self, question: &str) -> String {
        splice(&self.question_prefix, question, "\nA:")
    }

    /// Full prompt for the chain-of-thought baseline (`T_C_M`).
    pub(crate) fn question_cot(&self, question: &str) -> String {
        format!(
            "{}\n{}\nQ: {question}\nA: Let's think step by step.",
            self.preamble, COT_EXEMPLAR
        )
    }

    /// Precomputes the per-cell fetch prompt template of one `(relation,
    /// key attribute, fetched attribute)` cell: everything but the key —
    /// preamble, question lead-in, relation, attribute, answer instruction
    /// — is rendered once, and the per-key hot loop of the fetch phase
    /// becomes two appends around the key ([`KeyTemplate::render`]).
    /// Rendering through the template is byte-identical to
    /// [`PromptBuilder::task`] on the equivalent [`TaskIntent::FetchAttr`]
    /// — the parts come from the same [`render_fetch_attr_parts`] the
    /// render arm uses. The `prompts` criterion bench measures the
    /// before/after.
    pub fn fetch_template(&self, relation: &str, key_attr: &str, attribute: &str) -> KeyTemplate {
        self.key_template(render_fetch_attr_parts(relation, key_attr, attribute))
    }

    /// Precomputes the filter prompt of one `(relation, key attribute,
    /// condition)`: the filter phase asks the same condition of every
    /// surviving key, so the condition is rendered once and each key
    /// costs two appends ([`KeyTemplate::render`]). Byte-identical to
    /// [`PromptBuilder::task`] on the equivalent
    /// [`TaskIntent::CheckFilter`] (same [`render_check_filter_parts`]).
    pub(crate) fn filter_template(
        &self,
        relation: &str,
        key_attr: &str,
        condition: &Condition,
    ) -> KeyTemplate {
        self.key_template(render_check_filter_parts(relation, key_attr, condition))
    }

    /// Wraps a question split around its key in the preamble and the
    /// answer marker.
    fn key_template(&self, (q_prefix, q_suffix): (String, String)) -> KeyTemplate {
        KeyTemplate {
            prefix: format!("{}{q_prefix}", self.question_prefix),
            suffix: format!("{q_suffix}\nA:"),
        }
    }
}

/// `prefix + middle + suffix` in one exact-size allocation.
fn splice(prefix: &str, middle: &str, suffix: &str) -> String {
    let mut out = String::with_capacity(prefix.len() + middle.len() + suffix.len());
    out.push_str(prefix);
    out.push_str(middle);
    out.push_str(suffix);
    out
}

/// A pre-rendered single-key prompt with a hole for the key (see
/// [`PromptBuilder::fetch_template`] and
/// `PromptBuilder::filter_template`).
#[derive(Debug, Clone)]
pub struct KeyTemplate {
    prefix: String,
    suffix: String,
}

impl KeyTemplate {
    /// The full prompt for one key, in one exact-size allocation.
    pub fn render(&self, key: &str) -> String {
        splice(&self.prefix, key, &self.suffix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galois_llm::intent::parse_task;

    fn list_task() -> TaskIntent {
        TaskIntent::ListKeys {
            relation: "city".into(),
            key_attr: "name".into(),
            condition: None,
            exclude: std::sync::Arc::new(vec![]),
        }
    }

    #[test]
    fn gpt_prompt_contains_figure4_examples() {
        let p = PromptBuilder::for_model("gpt3").task(&list_task());
        assert!(p.contains("highly intelligent question answering bot"));
        assert!(p.contains("1992 Olympics"));
        assert!(p.ends_with("A:"));
    }

    #[test]
    fn small_model_prompt_is_compact() {
        let p = PromptBuilder::for_model("flan").task(&list_task());
        assert!(!p.contains("Olympics"));
        assert!(p.len() < 400);
    }

    #[test]
    fn task_prompt_roundtrips_through_protocol_parser() {
        let t = list_task();
        let p = PromptBuilder::for_model("chatgpt").task(&t);
        assert_eq!(parse_task(&p), Some(t));
    }

    #[test]
    fn precomputed_prefix_matches_naive_formatting() {
        for model in ["gpt3", "chatgpt", "flan", "tk"] {
            let b = PromptBuilder::for_model(model);
            let t = list_task();
            assert_eq!(
                b.task(&t),
                format!("{}\nQ: {}\nA:", b.preamble, render_task(&t)),
                "{model}"
            );
            assert_eq!(
                b.question("How many cities exist?"),
                format!("{}\nQ: How many cities exist?\nA:", b.preamble),
                "{model}"
            );
        }
    }

    #[test]
    fn grid_prompt_matches_task_rendering_byte_for_byte() {
        for model in ["gpt3", "chatgpt", "flan", "tk"] {
            let b = PromptBuilder::for_model(model);
            for (keys, attributes) in [
                (
                    vec!["Rome", "- dashed", "Val d'Oro: east, 2"],
                    vec!["population", "country"],
                ),
                (vec![""], vec!["a / b"]),
                (vec!["東京 \u{2301} x"], vec!["elevation", "", "ü"]),
            ] {
                let direct = b.task(&TaskIntent::FetchGridBatch {
                    relation: "city".into(),
                    key_attr: "name".into(),
                    keys: keys.iter().map(|k| k.to_string()).collect(),
                    attributes: attributes.iter().map(|a| a.to_string()).collect(),
                });
                assert_eq!(
                    b.grid("city", "name", &keys, &attributes),
                    direct,
                    "{model}"
                );
            }
        }
    }

    #[test]
    fn fetch_template_matches_task_rendering_byte_for_byte() {
        for model in ["gpt3", "chatgpt", "flan", "tk"] {
            let b = PromptBuilder::for_model(model);
            let template = b.fetch_template("city", "name", "population");
            for key in ["Rome", "Val d'Oro: east", "A, B"] {
                let direct = b.task(&TaskIntent::FetchAttr {
                    relation: "city".into(),
                    key_attr: "name".into(),
                    key: key.into(),
                    attribute: "population".into(),
                });
                assert_eq!(template.render(key), direct, "{model} / {key}");
            }
        }
    }

    /// Every condition the two suites compile into a filter step, asked of
    /// keys that stress the hole (quotes, commas, the protocol's own
    /// markers, multi-byte characters, nothing at all).
    #[test]
    fn filter_template_matches_task_rendering_byte_for_byte() {
        use crate::compile::{compile, CompileOptions};
        use galois_dataset::{build_operator_suite, Scenario};

        let s = Scenario::generate(42);
        let statements = s
            .suite
            .iter()
            .map(|q| q.to_sql())
            .chain(build_operator_suite(&s.world).into_iter().map(|q| q.sql));
        let mut conditions = 0;
        for sql in statements {
            let plan = s.database.plan(&sql).unwrap();
            let compiled = compile(&plan, s.database.catalog(), &CompileOptions::default());
            for step in compiled.unwrap().steps {
                for condition in &step.filter_conditions {
                    conditions += 1;
                    for model in ["chatgpt", "flan"] {
                        let b = PromptBuilder::for_model(model);
                        let template = b.filter_template(&step.table, &step.key_attr, condition);
                        for key in [
                            "Rome",
                            "Val d'Oro: east",
                            "A, B",
                            "', is its x",
                            "Zürich 東京",
                            "",
                        ] {
                            let direct = b.task(&TaskIntent::CheckFilter {
                                relation: step.table.to_string(),
                                key_attr: step.key_attr.to_string(),
                                key: key.into(),
                                condition: condition.clone(),
                            });
                            assert_eq!(template.render(key), direct, "{sql} / {model} / {key}");
                        }
                    }
                }
            }
        }
        assert!(conditions >= 20, "the suites filter: {conditions}");
    }

    #[test]
    fn cot_prompt_has_exemplar_and_marker() {
        let p = PromptBuilder::for_model("chatgpt").question_cot("How many cities exist?");
        assert!(p.contains("step by step"));
        assert!(p.contains("Step 1"));
    }
}
