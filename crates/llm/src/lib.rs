//! # galois-llm
//!
//! The simulated pre-trained LLM substrate for the Galois reproduction
//! (["Querying Large Language Models with SQL"](https://arxiv.org/abs/2304.00472),
//! EDBT 2024).
//!
//! The paper queries OpenAI GPT-3 / ChatGPT and local Flan-T5 /
//! Tk-Instruct models. Offline, this crate substitutes a deterministic
//! simulator with the same *interface* (text in, text out — see
//! [`LanguageModel`]) and the same *failure modes*, each dialled by
//! a [`ModelProfile`]:
//!
//! * popularity-biased recall (missing result rows, Table 1),
//! * hallucinated entities and fabricated values,
//! * value errors stable per (model, entity, attribute) — wrong beliefs,
//!   not per-prompt coin flips,
//! * numeric/date format noise (`"2.8 million"`, `"05/08/1961"`) that the
//!   Galois cleaning stage must normalise,
//! * surface-form conventions for entity references ("IT" vs "ITA") that
//!   systematically break joins,
//! * weak self-computed arithmetic for the QA baselines,
//! * context-window truncation (small models lose long exclusion lists).
//!
//! [`Transcript`] records that text — every prompt a model is sent and
//! the completion it returns — and replays it as a model of its own, so a
//! run can be reproduced, and checked, with no simulator behind it.
//!
//! ARCHITECTURE.md's "Crate ↔ paper map" (`crates/llm` — §5 models,
//! offline substitution) names the module behind each substitution.

#![warn(missing_docs, unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod arena;
mod client;
mod columns;
pub mod faults;
pub mod intent;
mod knowledge;
mod lanes;
mod model;
pub mod nlq;
pub mod noise;
mod profiles;
mod qa;
mod resilience;
mod simllm;
pub mod tokenizer;
mod transcript;

pub use client::{
    BatchOutcome, ClientStats, KeyUniverse, KeyUniverseStore, LlmClient, SubEntryLookup,
    BATCH_OVERHEAD_MS,
};
pub use columns::{SubColumn, SubKey, SubLookup};
pub use faults::{FaultProfile, FaultyLlm};
pub use intent::{CmpOp, Condition, PromptValue, TaskIntent};
pub use knowledge::{Entity, FactValue, KnowledgeStore};
pub use lanes::{lane_schedule, EventClock, LanePool, Parallelism};
pub use model::{Completion, Fault, FaultKind, FixedResponder, LanguageModel, Usage};
pub use nlq::{AggIntent, AggKind, JoinIntent, QueryIntent};
pub use profiles::ModelProfile;
pub use resilience::RetryPolicy;
pub use simllm::SimLlm;
pub use transcript::{Recording, Replay, Transcript};
