//! Reproduces **Figure 4**: the few-shot prompt sent to GPT-style models,
//! plus the operator question lines generated for each physical operator.

use galois_core::prompts::PromptBuilder;
use galois_llm::intent::{CmpOp, Condition, PromptValue, TaskIntent};

/// The `Q:` line of a rendered prompt (the operator question itself).
fn question_line(prompt: &str) -> String {
    format!("Q: {}", galois_llm::intent::question_line(prompt))
}

fn main() {
    galois_bench::Flags::from_env(&[]);
    println!("Figure 4 — prompt construction\n");
    let builder = PromptBuilder::for_model("gpt3");

    let scan = TaskIntent::ListKeys {
        relation: "city".into(),
        key_attr: "name".into(),
        condition: None,
        exclude: std::sync::Arc::new(vec![]),
    };
    println!("=== base-relation access (key retrieval) ===");
    println!("{}\n", builder.task(&scan));

    let more = TaskIntent::ListKeys {
        relation: "city".into(),
        key_attr: "name".into(),
        condition: None,
        exclude: std::sync::Arc::new(vec!["New York City".into(), "Chicago".into()]),
    };
    println!("=== \"Return more results\" iteration ===");
    println!("{}\n", question_line(&builder.task(&more)));

    let fetch = TaskIntent::FetchAttr {
        relation: "city".into(),
        key_attr: "name".into(),
        key: "Chicago".into(),
        attribute: "mayor".into(),
    };
    println!("=== attribute retrieval (before join/projection) ===");
    println!("{}\n", question_line(&builder.task(&fetch)));

    let filter = TaskIntent::CheckFilter {
        relation: "city".into(),
        key_attr: "name".into(),
        key: "Chicago".into(),
        condition: Condition {
            attribute: "population".into(),
            op: CmpOp::Gt,
            values: vec![PromptValue::Number(1_000_000.0)],
        },
    };
    println!("=== selection operator (paper: \"Has city c.name more than 1M population?\") ===");
    println!("{}", question_line(&builder.task(&filter)));
}
