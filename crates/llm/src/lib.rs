//! # galois-llm
//!
//! The simulated pre-trained LLM substrate for the Galois reproduction
//! (["Querying Large Language Models with SQL"](https://arxiv.org/abs/2304.00472),
//! EDBT 2024).
//!
//! The paper queries OpenAI GPT-3 / ChatGPT and local Flan-T5 /
//! Tk-Instruct models. Offline, this crate substitutes a deterministic
//! simulator with the same *interface* (text in, text out — see
//! [`model::LanguageModel`]) and the same *failure modes*, each dialled by
//! a [`profiles::ModelProfile`]:
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
//! ARCHITECTURE.md's "Crate ↔ paper map" (`crates/llm` — §5 models,
//! offline substitution) names the module behind each substitution.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
pub mod columns;
pub mod faults;
pub mod intent;
pub mod knowledge;
pub mod lanes;
pub mod model;
pub mod nlq;
pub mod noise;
pub mod profiles;
pub mod qa;
pub mod resilience;
pub mod simllm;
pub mod tokenizer;

pub use client::{
    BatchOutcome, ClientStats, KeyUniverse, KeyUniverseStore, LlmClient, SubEntryLookup,
    BATCH_OVERHEAD_MS, CACHE_SHARDS,
};
pub use columns::{SubColumn, SubLookup};
pub use faults::{FaultProfile, FaultyLlm};
pub use intent::{CmpOp, Condition, PromptValue, TaskIntent};
pub use knowledge::{Entity, EntityId, FactValue, KnowledgeStore};
pub use lanes::{lane_schedule, EventClock, FairShare, LanePool, LaneScratch, Parallelism};
pub use model::{Completion, Fault, FaultKind, FixedResponder, LanguageModel, Usage};
pub use nlq::{AggIntent, AggKind, JoinIntent, QueryIntent};
pub use profiles::ModelProfile;
pub use resilience::{CircuitBreaker, RetryPolicy};
pub use simllm::SimLlm;
