//! The simulated pre-trained LLM.
//!
//! `SimLlm` implements [`LanguageModel`] over a [`KnowledgeStore`] plus a
//! [`ModelProfile`]. Everything it does flows through *text*: the prompt is
//! truncated to the model's context window, its final question line is
//! intent-matched, and the answer is rendered with the profile's noise
//! channels.
//!
//! Two design rules keep the simulation behaviourally faithful:
//!
//! 1. **Stable beliefs.** Whether the model recalls an entity, knows a
//!    fact, or holds a *wrong* value for it is a deterministic function of
//!    `(model seed, entity, attribute)` — not of the prompt. A model that
//!    believes Rome has 2.6M people says so in every prompt, exactly like
//!    a real LLM's parameters. Iterating a list prompt therefore cannot
//!    surface rows the model "doesn't know" (paper §3: coverage bias),
//!    and filter errors are consistent across operators.
//! 2. **Conventions, not coin flips, for surface forms.** Which surface
//!    form an entity reference takes ("Italy" / "IT" / "ITA") is chosen
//!    per *(subject type, attribute label)* context. Two plan operators
//!    that retrieve the "same" value through different contexts can
//!    therefore disagree systematically — reproducing the paper's join
//!    failures ("an attempt to join the country code 'IT' with 'ITA'",
//!    §5) rather than sprinkling random noise.
//!
//! Because beliefs are stable, a prompt's cost need not grow with the
//! world: the store's indexes hand out a type's entities and a
//! predicate's holders in list order, a list concept's belief list is
//! computed once and sliced by every page that asks for it, and a draw
//! whose outcome is certain (a rate of zero or one, or a prompt-seeded
//! draw the profile would discard) is never hashed.
//!
//! Nor need it grow with the preamble every operator prompt shares (the
//! paper's few-shot Figure 4 text is most of a fetch prompt). The first
//! prompt with text before its final `Q: ` line fills a memo, shared by
//! clones: that text, the tokenizer's state after it and, for each
//! prompt-seeded draw (`fetch`, `list`, `qa`), the FNV state of its seed
//! after it. A prompt that starts with the text costs one compare, then
//! the token walk and its seed resume from there; every other prompt is
//! read whole. Resuming a walk or a fold is exact, so the answers, token
//! counts and draws are those of reading the whole prompt.

use crate::intent::{self, CmpOp, Condition, PromptValue, TaskIntent};
use crate::knowledge::{Entity, FactValue, KnowledgeStore};
use crate::model::{Completion, LanguageModel, Usage};
use crate::noise::{self, seeded};
use crate::profiles::ModelProfile;
use crate::qa;
use crate::tokenizer::{count_tokens, truncate_tokens, truncate_tokens_from, walk_state};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// The simulated LLM: a knowledge store viewed through a noisy profile.
#[derive(Clone)]
pub struct SimLlm {
    kb: Arc<KnowledgeStore>,
    profile: ModelProfile,
    /// What the model has worked out from the store and its prompts. Each
    /// memo is a pure function of the profile, the store and what was
    /// asked, so clones share them.
    memo: Arc<Memo>,
}

#[derive(Default)]
struct Memo {
    /// Belief lists by list concept; at most (distinct concepts asked ×
    /// entities of the type) surfaces.
    lists: Mutex<HashMap<ListConcept, Arc<Surfaces>>>,
    /// The first prompt preamble the model read, with the tokenizer's and
    /// the prompt seeds' states after it.
    preamble: OnceLock<Preamble>,
}

/// A prompt preamble read once: everything before the final `Q: ` line of
/// the first prompt that had something there (every operator prompt
/// carries the same few-shot preamble). A prompt that starts with `text`
/// resumes the token walk and its prompt seed from the states here
/// instead of reading `text` again; the answers, counts and draws are
/// those of the whole walk.
struct Preamble {
    text: String,
    /// [`walk_state`] of `text`: its tokens and its open word run.
    tokens: usize,
    run: usize,
    /// [`noise::seeded_prefix`] of `text` under each [`PromptSeed`].
    fetch: u64,
    list: u64,
    qa: u64,
}

impl Preamble {
    fn new(text: &str, seed: u64) -> Self {
        let (tokens, run) = walk_state(text);
        let prefix = |label: PromptSeed| noise::seeded_prefix(seed, label.name(), text);
        Preamble {
            text: text.to_string(),
            tokens,
            run,
            fetch: prefix(PromptSeed::Fetch),
            list: prefix(PromptSeed::List),
            qa: prefix(PromptSeed::Qa),
        }
    }

    fn seed(&self, label: PromptSeed) -> u64 {
        match label {
            PromptSeed::Fetch => self.fetch,
            PromptSeed::List => self.list,
            PromptSeed::Qa => self.qa,
        }
    }
}

/// The draws seeded by a whole prompt, by their label: a fetch answer's
/// format and wrapper, a list page's verbose wrapper, and a QA answer.
#[derive(Clone, Copy)]
pub(crate) enum PromptSeed {
    Fetch,
    List,
    Qa,
}

impl PromptSeed {
    fn name(self) -> &'static str {
        match self {
            PromptSeed::Fetch => "fetch",
            PromptSeed::List => "list",
            PromptSeed::Qa => "qa",
        }
    }
}

/// One belief list: its surfaces end to end in one string, and where each
/// ends — two allocations a list, where a `String` per surface took one
/// each. A list longer than `u32` offsets reach keeps its surfaces up to
/// there.
#[derive(Default)]
struct Surfaces {
    text: String,
    ends: Vec<u32>,
}

impl Surfaces {
    fn push(&mut self, surface: &str) {
        let Ok(end) = u32::try_from(self.text.len() + surface.len()) else {
            return;
        };
        self.text.push_str(surface);
        self.ends.push(end);
    }

    /// The surfaces in list order, from the `offset`-th on (none past the
    /// end).
    fn iter_from(&self, offset: usize) -> impl Iterator<Item = &str> {
        let (before, ends) = self.ends.split_at(offset.min(self.ends.len()));
        let first = before.last().copied().unwrap_or(0);
        let starts = std::iter::once(first).chain(ends.iter().copied());
        starts
            .zip(ends)
            .map(|(start, &end)| &self.text[start as usize..end as usize])
    }
}

/// What a list prompt asks for, as the belief-list memo keys it: the
/// relation's entity type, the key attribute and the condition.
#[derive(PartialEq, Eq, Hash)]
struct ListConcept {
    ty: String,
    key_attr: String,
    condition: Option<(String, CmpOp, Vec<Operand>)>,
}

/// A condition operand, numbers by bit pattern so that the key is `Eq`.
#[derive(PartialEq, Eq, Hash)]
enum Operand {
    Text(String),
    Number(u64),
}

impl ListConcept {
    fn new(ty: String, key_attr: &str, condition: Option<&Condition>) -> Self {
        let condition = condition.map(|c| {
            let operands = c
                .values
                .iter()
                .map(|v| match v {
                    PromptValue::Text(t) => Operand::Text(t.clone()),
                    PromptValue::Number(n) => Operand::Number(n.to_bits()),
                })
                .collect();
            (c.attribute.clone(), c.op, operands)
        });
        ListConcept {
            ty,
            key_attr: key_attr.to_string(),
            condition,
        }
    }
}

impl SimLlm {
    /// Creates a model over a knowledge store.
    pub fn new(kb: Arc<KnowledgeStore>, profile: ModelProfile) -> Self {
        SimLlm {
            kb,
            profile,
            memo: Arc::default(),
        }
    }

    /// The profile in use.
    pub(crate) fn profile(&self) -> &ModelProfile {
        &self.profile
    }

    /// The underlying knowledge store.
    pub(crate) fn knowledge(&self) -> &KnowledgeStore {
        &self.kb
    }

    /// Uniform [0,1) draw, stable per (model seed, parts).
    fn draw(&self, parts: &[&str]) -> f64 {
        (seeded(self.profile.seed, parts) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// True with probability `p`, stable per (model seed, parts):
    /// `draw(parts) < p`, without the hash when the outcome is certain.
    fn chance(&self, p: f64, parts: &[&str]) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.draw(parts) < p
        }
    }

    /// RNG seeded stably per (model seed, parts).
    fn rng(&self, parts: &[&str]) -> StdRng {
        StdRng::seed_from_u64(seeded(self.profile.seed, parts))
    }

    /// [`Self::rng`] of `[label, prompt]`, resumed from the preamble memo
    /// when the prompt starts with its text.
    pub(crate) fn prompt_rng(&self, label: PromptSeed, prompt: &str) -> StdRng {
        let resumed = (self.memo.preamble.get())
            .and_then(|memo| Some((memo.seed(label), prompt.strip_prefix(&*memo.text)?)));
        let seed = match resumed {
            Some((state, rest)) => noise::seeded_resume(state, &[rest]),
            None => seeded(self.profile.seed, &[label.name(), prompt]),
        };
        StdRng::seed_from_u64(seed)
    }

    /// The preamble memo when `prompt` starts with its text, filling it
    /// first from `prompt` when it is empty and `prompt` has a preamble.
    fn memo_for(&self, prompt: &str) -> Option<&Preamble> {
        let memo = match self.memo.preamble.get() {
            Some(memo) => memo,
            None => {
                let text = preamble(prompt);
                if text.is_empty() {
                    return None;
                }
                let seed = self.profile.seed;
                self.memo.preamble.get_or_init(|| Preamble::new(text, seed))
            }
        };
        prompt.starts_with(&*memo.text).then_some(memo)
    }

    /// Whether format noise can change a rendered value: without it every
    /// style draw picks the plain form.
    fn formats_vary(&self) -> bool {
        self.profile.format_noise > 0.0
    }

    /// Does the model recall this entity at all? Stable belief.
    pub(crate) fn recalls(&self, e: &Entity) -> bool {
        self.chance(
            self.profile.recall_probability(e.popularity),
            &["recall", &e.entity_type, &e.name],
        )
    }

    /// The value the model *believes* for `(entity, attribute)`:
    /// `None` = the model would answer "Unknown".
    pub(crate) fn perceived_fact(&self, e: &Entity, attribute: &str) -> Option<FactValue> {
        let ty = &e.entity_type;
        let Some(truth) = self.kb.fact(e.id, attribute) else {
            // An entity's "name" is its identity, not a stored fact: asked
            // for the name of something it recalls, the model simply says
            // the name.
            return (self.kb.canonical(attribute) == "name")
                .then(|| FactValue::Text(e.name.clone()));
        };
        if self.chance(self.profile.unknown_rate, &["know", ty, &e.name, attribute]) {
            return None;
        }
        if self.chance(
            self.profile.value_error_rate,
            &["err", ty, &e.name, attribute],
        ) {
            Some(self.perturbed(truth, e, attribute))
        } else {
            Some(truth.clone())
        }
    }

    fn perturbed(&self, truth: &FactValue, e: &Entity, attribute: &str) -> FactValue {
        let mut rng = self.rng(&["perturb", &e.entity_type, &e.name, attribute]);
        match truth {
            FactValue::Number(n) => {
                // Ensure the wrong value is wrong enough to usually exceed
                // the evaluation's 5% relative-error tolerance.
                let rel = self.profile.value_rel_err.max(0.07);
                let mut v = noise::perturb_number(*n, rel, &mut rng);
                if (v - n).abs() / n.abs().max(1.0) < 0.05 {
                    v = n * (1.0 + rel) + 1.0;
                    if n.fract() == 0.0 {
                        v = v.round();
                    }
                }
                FactValue::Number(v)
            }
            FactValue::Date { year, month, day } => {
                let (y, m, d) = noise::perturb_date(*year, *month, *day, 500, &mut rng);
                FactValue::Date {
                    year: y,
                    month: m,
                    day: d,
                }
            }
            FactValue::Text(_) | FactValue::Entity(_) => {
                // Confusion: substitute the same attribute of another
                // entity of the same type (a popular wrong answer). The
                // donors are the attribute's holders without `e`; the draw
                // indexes them as it would a filtered copy.
                let holders = self.kb.holders(&e.entity_type, attribute);
                let rank = self.kb.rank(e.id);
                let at = holders.partition_point(|h| self.kb.rank(*h) < rank);
                let gap = usize::from(holders.get(at) == Some(&e.id));
                let donors = holders.len() - gap;
                if donors == 0 {
                    return truth.clone();
                }
                let i = rng.gen_range(0..donors);
                let donor = holders[if i < at { i } else { i + gap }];
                self.kb
                    .fact(donor, attribute)
                    .cloned()
                    .unwrap_or_else(|| truth.clone())
            }
        }
    }

    /// Chooses the surface form for an entity reference in the given
    /// context.
    ///
    /// * Enumerating a relation's own keys ("list the names of mayors")
    ///   yields canonical forms — that is where formal names live.
    /// * A *reference* from another subject ("who is the mayor of Rome?")
    ///   uses informal alias forms at `alias_rate`, stable per (context,
    ///   attribute, entity).
    /// * Code-like labels always render as a code; the convention (which
    ///   code standard) is stable per `(subject type, label)`, with the
    ///   *last* alias slot being the ground-truth-canonical form and
    ///   `code_drift` the probability a context settles on a different
    ///   standard — the paper's "IT" vs "ITA" join failure.
    pub(crate) fn entity_surface(
        &self,
        target: &Entity,
        context_type: &str,
        attribute: &str,
    ) -> String {
        if target.aliases.is_empty() {
            return target.name.clone();
        }
        let label = attribute.to_ascii_lowercase();
        let slots = target.aliases.len();
        if label.contains("code") {
            if self.chance(
                self.profile.code_drift,
                &["convdrift", context_type, &label],
            ) {
                let conv =
                    seeded(self.profile.seed, &["conv", context_type, &label]) as usize % slots;
                return target.aliases[conv].clone();
            }
            return target.aliases[slots - 1].clone();
        }
        if context_type.eq_ignore_ascii_case(&target.entity_type) {
            return target.name.clone();
        }
        // Famous targets surface under their canonical names ("the capital
        // of Valdovia is Sanbrook"); obscure ones drift into informal or
        // abbreviated forms. This keeps references to celebrity entities
        // joinable while niche-entity joins break — matching the paper's
        // popularity observations (§6 "Coverage and Bias").
        // Quadratic in popularity: only genuinely famous entities get the
        // canonical-form guarantee; the mid/tail drifts.
        let effective =
            self.profile.alias_rate * (1.0 - 0.9 * target.popularity * target.popularity);
        if self.chance(effective, &["conv", context_type, &label, &target.name]) {
            let slot =
                seeded(self.profile.seed, &["convslot", context_type, &label]) as usize % slots;
            target.aliases[slot].clone()
        } else {
            target.name.clone()
        }
    }

    /// Evaluates a condition against the model's *beliefs* about `e`.
    /// `None` means the model cannot tell (missing value).
    pub(crate) fn condition_holds(&self, e: &Entity, cond: &Condition) -> Option<bool> {
        let perceived = self.perceived_fact(e, &cond.attribute);
        match cond.op {
            CmpOp::IsNull => return Some(perceived.is_none()),
            CmpOp::IsNotNull => return Some(perceived.is_some()),
            _ => {}
        }
        let v = perceived?;
        // Operand access is by `.get` — a condition missing an operand
        // (corrupted or hand-built, never produced by `Condition::parse`)
        // evaluates to "cannot tell" instead of panicking a worker.
        let result = match cond.op {
            CmpOp::Eq => self.value_matches(&v, cond.values.first()?),
            CmpOp::NotEq => !self.value_matches(&v, cond.values.first()?),
            CmpOp::Gt | CmpOp::GtEq | CmpOp::Lt | CmpOp::LtEq => {
                let a = fact_number(&v)?;
                let b = cond.values.first()?.as_number()?;
                match cond.op {
                    CmpOp::Gt => a > b,
                    CmpOp::GtEq => a >= b,
                    CmpOp::Lt => a < b,
                    CmpOp::LtEq => a <= b,
                    _ => unreachable!(),
                }
            }
            CmpOp::Between => {
                let a = fact_number(&v)?;
                let lo = cond.values.first()?.as_number()?;
                let hi = cond.values.get(1)?.as_number()?;
                a >= lo && a <= hi
            }
            CmpOp::In => cond.values.iter().any(|pv| self.value_matches(&v, pv)),
            CmpOp::Like => {
                let s = self.fact_text(&v);
                let pat = cond.values.first()?.as_text()?;
                sloppy_like(&s, pat)
            }
            CmpOp::IsNull | CmpOp::IsNotNull => unreachable!(),
        };
        Some(result)
    }

    /// Compares a believed fact with a prompt operand the way a language
    /// model would: case-insensitive text, any alias form accepted.
    fn value_matches(&self, v: &FactValue, pv: &PromptValue) -> bool {
        match (v, pv) {
            (FactValue::Number(a), PromptValue::Number(b)) => (a - b).abs() < 1e-9,
            (FactValue::Entity(id), PromptValue::Text(t)) => {
                let e = self.kb.entity(*id);
                let t = t.trim();
                e.name.eq_ignore_ascii_case(t)
                    || e.aliases.iter().any(|a| a.eq_ignore_ascii_case(t))
            }
            (FactValue::Text(a), PromptValue::Text(b)) => a.trim().eq_ignore_ascii_case(b.trim()),
            (FactValue::Number(a), PromptValue::Text(b)) => {
                b.trim().parse::<f64>().is_ok_and(|n| (a - n).abs() < 1e-9)
            }
            (FactValue::Date { year, month, day }, PromptValue::Text(b)) => {
                noise::render_date(*year, *month, *day, noise::DateStyle::Iso) == b.trim()
            }
            _ => false,
        }
    }

    /// The plain text the model associates with a fact (canonical form).
    pub(crate) fn fact_text(&self, v: &FactValue) -> String {
        match v {
            FactValue::Text(s) => s.clone(),
            FactValue::Number(n) => noise::render_number(*n, noise::NumberStyle::Plain),
            FactValue::Date { year, month, day } => {
                noise::render_date(*year, *month, *day, noise::DateStyle::Iso)
            }
            FactValue::Entity(id) => self.kb.entity(*id).name.clone(),
        }
    }

    /// Renders a believed fact as answer text, applying format noise and
    /// surface-form conventions.
    pub(crate) fn render_value(
        &self,
        v: &FactValue,
        context_type: &str,
        attribute: &str,
        rng: &mut StdRng,
    ) -> String {
        self.render_belief(v, context_type, attribute, Some(rng))
    }

    /// [`Self::render_value`] with the seed left unbuilt (`None`) when
    /// [`Self::formats_vary`] is false: every style draw would pick the
    /// plain form.
    fn render_belief(
        &self,
        v: &FactValue,
        context_type: &str,
        attribute: &str,
        rng: Option<&mut StdRng>,
    ) -> String {
        match (v, rng) {
            (FactValue::Entity(id), _) => {
                let target = self.kb.entity(*id);
                self.entity_surface(target, context_type, attribute)
            }
            (other, Some(rng)) => {
                noise::render_fact(other, rng, self.profile.format_noise, |_| None)
            }
            (other, None) => self.fact_text(other),
        }
    }

    // -----------------------------------------------------------------
    // Task answering
    // -----------------------------------------------------------------

    fn answer(&self, prompt: &str) -> String {
        if let Some(task) = intent::parse_task(prompt) {
            return self.answer_task(&task, prompt);
        }
        let q_line = intent::question_line(prompt);
        if let Some(q) = crate::nlq::parse_question(q_line) {
            let cot = prompt.contains("step by step");
            return qa::answer_question(self, &q, cot, prompt);
        }
        "Unknown".to_string()
    }

    fn answer_task(&self, task: &TaskIntent, prompt: &str) -> String {
        match task {
            TaskIntent::ListKeys {
                relation,
                key_attr,
                condition,
                exclude,
            } => self.answer_list_keys(
                relation,
                key_attr,
                condition.as_ref(),
                exclude.as_slice(),
                prompt,
            ),
            TaskIntent::ListKeysPage {
                relation,
                key_attr,
                condition,
                offset,
            } => {
                self.answer_list_keys_page(relation, key_attr, condition.as_ref(), *offset, prompt)
            }
            TaskIntent::FetchAttr {
                relation,
                key_attr: _,
                key,
                attribute,
            } => self.answer_fetch_attr(relation, key, attribute, self.fetch_noise(prompt)),
            TaskIntent::CheckFilter {
                relation,
                key_attr: _,
                key,
                condition,
            } => self.answer_check_filter(relation, key, condition),
            TaskIntent::FetchAttrBatch {
                relation,
                key_attr,
                keys,
                attribute,
            } => {
                let preamble = preamble(prompt);
                self.answer_batched(keys, |key| {
                    let noise = self.cell_noise(preamble, relation, key_attr, key, attribute);
                    self.answer_fetch_attr(relation, key, attribute, noise)
                })
            }
            TaskIntent::FilterKeysBatch {
                relation,
                key_attr: _,
                keys,
                condition,
            } => self.answer_batched(keys, |key| {
                self.answer_check_filter(relation, key, condition)
            }),
            TaskIntent::FetchGridBatch {
                relation,
                key_attr,
                keys,
                attributes,
            } => self.answer_grid(prompt, relation, key_attr, keys, attributes),
        }
    }

    /// Answers a grid-fused fetch as one `key ⌁ attr: answer` line per
    /// (key, attribute) cell.
    ///
    /// Like [`Self::answer_batched`], every cell is answered through the
    /// *single-key, single-attribute* machinery seeded with the
    /// reconstructed one-cell prompt ([`Self::cell_noise`]), so grid
    /// answers are bit-identical to what per-cell retrieval would have
    /// produced under the same prompt builder — the guarantee that lets
    /// the engine prove grid mode's `R_M`-invariance on a noise-free model.
    fn answer_grid(
        &self,
        prompt: &str,
        relation: &str,
        key_attr: &str,
        keys: &[String],
        attributes: &[String],
    ) -> String {
        if keys.is_empty() || attributes.is_empty() {
            return "Unknown".to_string();
        }
        let preamble = preamble(prompt);
        let cells: Vec<(&str, &str, String)> = keys
            .iter()
            .flat_map(|key| {
                attributes.iter().map(move |attribute| {
                    let noise = self.cell_noise(preamble, relation, key_attr, key, attribute);
                    let answer = self.answer_fetch_attr(relation, key, attribute, noise);
                    (key.as_str(), attribute.as_str(), answer)
                })
            })
            .collect();
        intent::render_grid_answer(cells.iter().map(|(k, a, v)| (*k, *a, v.as_str())))
    }

    /// Answers a multi-key batched task as one `key: answer` line per key.
    ///
    /// Each key is answered through the *single-key* machinery — a fetch
    /// seeded with the reconstructed single-key prompt
    /// ([`Self::cell_noise`]), a filter check with no prompt seed at all —
    /// so per-key beliefs, surface forms and format noise are bit-identical
    /// to what one-prompt-per-key retrieval would have produced under the
    /// same prompt builder. A real LLM offers no such guarantee; keeping it
    /// exact here is what lets the engine prove `R_M`-invariance of
    /// batching on a noise-free model.
    fn answer_batched(&self, keys: &[String], answer_one: impl Fn(&str) -> String) -> String {
        if keys.is_empty() {
            return "Unknown".to_string();
        }
        let answers: Vec<String> = keys.iter().map(|key| answer_one(key)).collect();
        intent::render_batched_answer(
            keys.iter()
                .map(String::as_str)
                .zip(answers.iter().map(String::as_str)),
        )
    }

    /// Whether a fetch answer draws from its prompt's seed: format noise
    /// picks number and date styles, verbosity may wrap the answer. With
    /// neither, every draw would be discarded.
    fn fetch_seeded(&self) -> bool {
        self.formats_vary() || self.profile.verbose
    }

    /// The prompt-seeded RNG of a fetch answer, built only when
    /// [`Self::fetch_seeded`].
    fn fetch_noise(&self, prompt: &str) -> Option<StdRng> {
        self.fetch_seeded()
            .then(|| self.prompt_rng(PromptSeed::Fetch, prompt))
    }

    /// [`Self::fetch_noise`] of one cell of a batched or grid fetch: the
    /// seed of the one-cell prompt the cell stands for — the batch's
    /// `preamble` plus the single fetch question — built only when it
    /// would seed, from the preamble memo's state when the preamble is its
    /// text, and with no prompt formatted.
    fn cell_noise(
        &self,
        preamble: &str,
        relation: &str,
        key_attr: &str,
        key: &str,
        attribute: &str,
    ) -> Option<StdRng> {
        self.fetch_seeded().then(|| {
            let question = intent::render_task(&TaskIntent::FetchAttr {
                relation: relation.to_string(),
                key_attr: key_attr.to_string(),
                key: key.to_string(),
                attribute: attribute.to_string(),
            });
            let state = match self.memo.preamble.get() {
                Some(memo) if memo.text == preamble => memo.seed(PromptSeed::Fetch),
                _ => noise::seeded_prefix(self.profile.seed, PromptSeed::Fetch.name(), preamble),
            };
            StdRng::seed_from_u64(noise::seeded_resume(state, &["Q: ", &question, "\nA:"]))
        })
    }

    /// The entity type a prompt-level relation name denotes, borrowed
    /// where it can be.
    pub(crate) fn relation_type<'a>(&'a self, relation: &'a str) -> Cow<'a, str> {
        self.kb.canonical(relation)
    }

    /// The model's stable belief surface list for one relation scan —
    /// recalled entities (condition-screened when the scan carries one,
    /// with the stable combined-condition flip), each rendered in the
    /// model's surface form, plus any hallucinated neighbours. Both list
    /// protocols (exclusion iteration and offset paging) read the same
    /// list, so a page at offset `n` serves exactly the keys an exclusion
    /// prompt carrying the first `n` surfaces would have produced next.
    ///
    /// The list is computed once per concept and memoised; the memo's
    /// lock is not held while a list is computed (two threads may both
    /// compute one, and keep the first).
    fn list_surfaces(
        &self,
        relation: &str,
        key_attr: &str,
        condition: Option<&Condition>,
    ) -> Option<Arc<Surfaces>> {
        let ty = self.relation_type(relation);
        let ids = self.kb.ids_of_type(&ty);
        if ids.is_empty() {
            return None;
        }
        let concept = ListConcept::new(ty.into_owned(), key_attr, condition);
        let memo = self.memo.lists.lock().get(&concept).cloned();
        if memo.is_some() {
            return memo;
        }
        let mut list = self.belief_list(&concept.ty, key_attr, condition);
        // The memo keeps the list for the model's lifetime: no spare room.
        list.text.shrink_to_fit();
        list.ends.shrink_to_fit();
        let list = Arc::new(list);
        Some(Arc::clone(
            self.memo.lists.lock().entry(concept).or_insert(list),
        ))
    }

    /// Computes [`Self::list_surfaces`]'s list for an entity type.
    fn belief_list(&self, ty: &str, key_attr: &str, condition: Option<&Condition>) -> Surfaces {
        let mut surfaces = Surfaces::default();
        for id in self.kb.ids_of_type(ty) {
            let e = self.kb.entity(*id);
            if !self.recalls(e) {
                continue;
            }
            if let Some(cond) = condition {
                let holds = self.condition_holds(e, cond).unwrap_or(false);
                // Combined prompts are harder: independent chance the model
                // mis-applies the condition to this entity (stable).
                let flipped = self.chance(
                    self.profile.combined_condition_penalty,
                    &["combflip", ty, &e.name, &cond.attribute],
                );
                if holds == flipped {
                    continue;
                }
            }
            surfaces.push(&self.entity_surface(e, ty, key_attr));
            // Hallucination: occasionally invent a neighbour.
            if self.chance(self.profile.hallucination_rate, &["fake", ty, &e.name]) {
                let mut frng = self.rng(&["fakename", ty, &e.name]);
                surfaces.push(&noise::fake_name(&mut frng));
            }
        }
        surfaces
    }

    /// Renders one page of list values ("No more results" when empty). The
    /// prompt seeds only the verbose wrapper, so only a verbose profile
    /// builds the seed.
    fn render_list_page(&self, fresh: &[&str], prompt: &str) -> String {
        if fresh.is_empty() {
            return "No more results".to_string();
        }
        let values = fresh.join(", ");
        if self.profile.verbose && self.prompt_rng(PromptSeed::List, prompt).gen::<f64>() < 0.5 {
            format!("Sure! Here are some values: {values}.")
        } else {
            values
        }
    }

    fn answer_list_keys(
        &self,
        relation: &str,
        key_attr: &str,
        condition: Option<&Condition>,
        exclude: &[String],
        prompt: &str,
    ) -> String {
        let Some(surfaces) = self.list_surfaces(relation, key_attr, condition) else {
            return "Unknown".to_string();
        };
        let excluded: HashSet<Folded<'_>> = exclude.iter().map(|s| Folded(s.trim())).collect();
        let fresh: Vec<&str> = surfaces
            .iter_from(0)
            .filter(|s| !excluded.contains(&Folded(s.trim())))
            .take(self.profile.list_page_size)
            .collect();
        self.render_list_page(&fresh, prompt)
    }

    /// Offset paging over the same stable surface list the exclusion
    /// protocol walks: "starting after the first `offset` results" skips
    /// `offset` surfaces and returns the next page.
    fn answer_list_keys_page(
        &self,
        relation: &str,
        key_attr: &str,
        condition: Option<&Condition>,
        offset: usize,
        prompt: &str,
    ) -> String {
        let Some(surfaces) = self.list_surfaces(relation, key_attr, condition) else {
            return "Unknown".to_string();
        };
        let fresh: Vec<&str> = surfaces
            .iter_from(offset)
            .take(self.profile.list_page_size)
            .collect();
        self.render_list_page(&fresh, prompt)
    }

    /// Answers one fetch; `noise` is its prompt seed, `None` when no draw
    /// from it can change the answer ([`Self::fetch_seeded`]).
    fn answer_fetch_attr(
        &self,
        relation: &str,
        key: &str,
        attribute: &str,
        mut noise: Option<StdRng>,
    ) -> String {
        let ty = self.relation_type(relation);
        let value = match self.kb.resolve(&ty, key) {
            Some(id) => {
                let e = self.kb.entity(id);
                match self.perceived_fact(e, attribute) {
                    Some(v) => Some(self.render_belief(&v, &ty, attribute, noise.as_mut())),
                    None => self.fabricated_value(&ty, key, attribute),
                }
            }
            // The key itself may be a hallucination from an earlier list
            // prompt; the model happily fabricates attributes for it.
            None => self.fabricated_value(&ty, key, attribute),
        };
        let wrap = |rng: &mut StdRng| rng.gen::<f64>() < 0.4;
        match value {
            Some(v) if self.profile.verbose && noise.as_mut().is_some_and(wrap) => {
                format!("The {attribute} of {key} is {v}.")
            }
            Some(v) => v,
            None => "Unknown".to_string(),
        }
    }

    /// Fabricates a plausible value for an unknown `(key, attribute)` by
    /// perturbing a donor entity's value, or admits "Unknown".
    fn fabricated_value(&self, ty: &str, key: &str, attribute: &str) -> Option<String> {
        if !self.chance(self.profile.fabrication_rate, &["fab", ty, key, attribute]) {
            return None;
        }
        let donor = self.kb.entity(*self.kb.holders(ty, attribute).first()?);
        let truth = self.kb.fact(donor.id, attribute)?.clone();
        let fabricated = self.perturbed(&truth, donor, attribute);
        let mut rng = self
            .formats_vary()
            .then(|| self.rng(&["fabrender", ty, key, attribute]));
        Some(self.render_belief(&fabricated, ty, attribute, rng.as_mut()))
    }

    fn answer_check_filter(&self, relation: &str, key: &str, condition: &Condition) -> String {
        let ty = self.relation_type(relation);
        let verdict = match self.kb.resolve(&ty, key) {
            Some(id) => {
                let e = self.kb.entity(id);
                let holds = self.condition_holds(e, condition).unwrap_or(false);
                let flipped = self.chance(
                    self.profile.filter_flip_rate,
                    &["flip", &ty, &e.name, &condition.attribute],
                );
                holds != flipped
            }
            // Unknown key: guess, stable per key.
            None => self.draw(&["guess", &ty, key]) < 0.5,
        };
        if verdict {
            "Yes".to_string()
        } else {
            "No".to_string()
        }
    }
}

/// A surface as an exclusion set compares it: equal to another under ASCII
/// case folding, the verdicts of lower-cased copies without the copies.
struct Folded<'a>(&'a str);

impl PartialEq for Folded<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.0.eq_ignore_ascii_case(other.0)
    }
}

impl Eq for Folded<'_> {}

impl Hash for Folded<'_> {
    /// Hashes the bytes lower-cased, a stack buffer at a time.
    fn hash<H: Hasher>(&self, state: &mut H) {
        let mut folded = [0u8; 32];
        for chunk in self.0.as_bytes().chunks(folded.len()) {
            let folded = &mut folded[..chunk.len()];
            folded.copy_from_slice(chunk);
            folded.make_ascii_lowercase();
            state.write(folded);
        }
    }
}

/// Everything before a prompt's final question's `Q: ` lead-in: prepended
/// to each reconstructed one-cell prompt of a batch, so per-cell noise
/// seeds match the single-cell path exactly.
fn preamble(prompt: &str) -> &str {
    intent::question_start(prompt).map_or("", |i| &prompt[..i])
}

/// Numeric view of a fact (dates expose their year — models routinely
/// answer "what year" questions from dates).
pub(crate) fn fact_number(v: &FactValue) -> Option<f64> {
    match v {
        FactValue::Number(n) => Some(*n),
        FactValue::Date { year, .. } => Some(f64::from(*year)),
        _ => None,
    }
}

/// Case-insensitive `%`/`_` pattern match — deliberately sloppier than SQL
/// LIKE, because the model is matching words, not bytes.
pub(crate) fn sloppy_like(s: &str, pattern: &str) -> bool {
    let s: Vec<char> = s.to_lowercase().chars().collect();
    let p: Vec<char> = pattern.to_lowercase().chars().collect();
    let (mut si, mut pi) = (0usize, 0usize);
    let (mut star, mut star_s) = (None::<usize>, 0usize);
    while si < s.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == s[si]) {
            si += 1;
            pi += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star = Some(pi);
            star_s = si;
            pi += 1;
        } else if let Some(sp) = star {
            pi = sp + 1;
            star_s += 1;
            si = star_s;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

impl LanguageModel for SimLlm {
    fn name(&self) -> &str {
        &self.profile.name
    }

    fn context_window(&self) -> usize {
        self.profile.context_window
    }

    /// Every answer this simulator produces is a deterministic function of
    /// the prompt and the full [`ModelProfile`], so the store-keying
    /// fingerprint is the profile itself: any field change (noise rates,
    /// seed, page size, …) yields a different signature and invalidates
    /// stored key universes.
    fn signature(&self) -> String {
        format!("{:?}", self.profile)
    }

    fn complete(&self, prompt: &str) -> Completion {
        let window = self.profile.context_window;
        let (kept, prompt_tokens) = match self.memo_for(prompt) {
            Some(memo) => {
                truncate_tokens_from(prompt, memo.text.len(), memo.tokens, memo.run, window)
            }
            None => truncate_tokens(prompt, window),
        };
        let text = self.answer(kept);
        let usage = Usage {
            prompt_tokens,
            completion_tokens: count_tokens(&text),
        };
        let latency_ms = self.profile.latency_ms
            + self.profile.latency_per_token_ms * usage.completion_tokens as u64;
        Completion {
            text,
            usage,
            latency_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intent::render_task;

    #[test]
    fn a_belief_list_reads_back_its_surfaces_from_any_offset() {
        let mut list = Surfaces::default();
        let surfaces = ["Rome", "", "Zürich", "Val d'Oro"];
        for surface in surfaces {
            list.push(surface);
        }
        for offset in 0..=surfaces.len() + 2 {
            let read: Vec<&str> = list.iter_from(offset).collect();
            assert_eq!(read, surfaces.get(offset..).unwrap_or_default(), "{offset}");
        }
        assert_eq!(Surfaces::default().iter_from(0).count(), 0);
    }

    fn test_kb() -> Arc<KnowledgeStore> {
        let mut kb = KnowledgeStore::new();
        let italy = kb.add_entity("Italy", "country", 0.95);
        kb.add_alias(italy, "IT");
        kb.add_alias(italy, "ITA");
        let france = kb.add_entity("France", "country", 0.9);
        kb.add_alias(france, "FR");
        kb.add_alias(france, "FRA");
        for (name, pop, n, c) in [
            ("Rome", 0.95, 2_800_000.0, italy),
            ("Milan", 0.7, 1_400_000.0, italy),
            ("Paris", 0.93, 2_100_000.0, france),
            ("Lyon", 0.35, 500_000.0, france),
        ] {
            let e = kb.add_entity(name, "city", pop);
            kb.add_fact(e, "population", FactValue::Number(n));
            kb.add_fact(e, "country", FactValue::Entity(c));
            kb.add_fact(e, "countryCode", FactValue::Entity(c));
        }
        Arc::new(kb)
    }

    fn oracle() -> SimLlm {
        SimLlm::new(test_kb(), ModelProfile::oracle())
    }

    #[test]
    fn oracle_lists_all_keys() {
        let m = oracle();
        let t = TaskIntent::ListKeys {
            relation: "city".into(),
            key_attr: "name".into(),
            condition: None,
            exclude: std::sync::Arc::new(vec![]),
        };
        let ans = m.complete(&render_task(&t)).text;
        for name in ["Rome", "Milan", "Paris", "Lyon"] {
            assert!(ans.contains(name), "{ans}");
        }
    }

    #[test]
    fn oracle_respects_exclusions_and_terminates() {
        let m = oracle();
        let t = TaskIntent::ListKeys {
            relation: "city".into(),
            key_attr: "name".into(),
            condition: None,
            exclude: std::sync::Arc::new(vec![
                "Rome".into(),
                "Milan".into(),
                "Paris".into(),
                "Lyon".into(),
            ]),
        };
        assert_eq!(m.complete(&render_task(&t)).text, "No more results");
    }

    #[test]
    fn oracle_fetches_exact_values() {
        let m = oracle();
        let t = TaskIntent::FetchAttr {
            relation: "city".into(),
            key_attr: "name".into(),
            key: "Rome".into(),
            attribute: "population".into(),
        };
        assert_eq!(m.complete(&render_task(&t)).text, "2800000");
    }

    #[test]
    fn oracle_filter_checks() {
        let m = oracle();
        let t = TaskIntent::CheckFilter {
            relation: "city".into(),
            key_attr: "name".into(),
            key: "Rome".into(),
            condition: Condition {
                attribute: "population".into(),
                op: CmpOp::Gt,
                values: vec![PromptValue::Number(1_000_000.0)],
            },
        };
        assert_eq!(m.complete(&render_task(&t)).text, "Yes");
        let t2 = TaskIntent::CheckFilter {
            relation: "city".into(),
            key_attr: "name".into(),
            key: "Lyon".into(),
            condition: Condition {
                attribute: "population".into(),
                op: CmpOp::Gt,
                values: vec![PromptValue::Number(1_000_000.0)],
            },
        };
        assert_eq!(m.complete(&render_task(&t2)).text, "No");
    }

    #[test]
    fn oracle_pushdown_condition() {
        let m = oracle();
        let t = TaskIntent::ListKeys {
            relation: "city".into(),
            key_attr: "name".into(),
            condition: Some(Condition {
                attribute: "population".into(),
                op: CmpOp::Gt,
                values: vec![PromptValue::Number(1_000_000.0)],
            }),
            exclude: std::sync::Arc::new(vec![]),
        };
        let ans = m.complete(&render_task(&t)).text;
        assert!(ans.contains("Rome") && ans.contains("Paris") && ans.contains("Milan"));
        assert!(!ans.contains("Lyon"));
    }

    #[test]
    fn beliefs_are_stable_across_prompts() {
        let m = SimLlm::new(test_kb(), ModelProfile::chatgpt());
        let t = TaskIntent::FetchAttr {
            relation: "city".into(),
            key_attr: "name".into(),
            key: "Lyon".into(),
            attribute: "population".into(),
        };
        // Different prompt wrappers, same belief: fetch twice via different
        // few-shot prefixes.
        let p1 = format!("preamble A\nQ: {}\nA:", render_task(&t));
        let p2 = format!("something entirely different\nQ: {}\nA:", render_task(&t));
        let kb = test_kb();
        let lyon = kb.resolve("city", "Lyon").unwrap();
        let e = kb.entity(lyon);
        let belief = m.perceived_fact(e, "population");
        // The rendered answers may differ in *format*, but the underlying
        // belief must be identical.
        let _ = (m.complete(&p1), m.complete(&p2));
        assert_eq!(belief, m.perceived_fact(e, "population"));
    }

    #[test]
    fn code_attributes_use_code_aliases() {
        let m = SimLlm::new(test_kb(), ModelProfile::chatgpt());
        let kb = m.knowledge();
        let italy = kb.entity(kb.resolve("country", "Italy").unwrap());
        let surface = m.entity_surface(italy, "city", "countryCode");
        assert!(
            surface == "IT" || surface == "ITA",
            "code label must render as a code, got {surface}"
        );
    }

    /// Wraps a task question the way `PromptBuilder::task` does, so the
    /// batched/single bit-identity below is checked under a realistic
    /// preamble (the reconstruction in `answer_batched` depends on it).
    fn with_preamble(question: &str) -> String {
        format!("I am a highly intelligent question answering bot.\nQ: {question}\nA:")
    }

    #[test]
    fn batched_fetch_answers_are_bit_identical_to_single_key_path() {
        // chatgpt, not oracle: format noise and verbosity are prompt-seeded,
        // so this proves the reconstruction, not just stable beliefs.
        let m = SimLlm::new(test_kb(), ModelProfile::chatgpt());
        let keys: Vec<String> = vec!["Rome".into(), "Milan".into(), "Lyon".into()];
        let batched = m
            .complete(&with_preamble(&render_task(&TaskIntent::FetchAttrBatch {
                relation: "city".into(),
                key_attr: "name".into(),
                keys: keys.clone(),
                attribute: "population".into(),
            })))
            .text;
        let split = crate::intent::split_batched_answer(&batched, &keys);
        for (key, sub) in keys.iter().zip(split) {
            let single = m
                .complete(&with_preamble(&render_task(&TaskIntent::FetchAttr {
                    relation: "city".into(),
                    key_attr: "name".into(),
                    key: key.clone(),
                    attribute: "population".into(),
                })))
                .text;
            assert_eq!(sub, Some(single.as_str()), "key {key}");
        }
    }

    #[test]
    fn grid_fetch_answers_are_bit_identical_to_single_cell_path() {
        // chatgpt, not oracle: format noise and verbosity are prompt-seeded,
        // so this proves the per-cell prompt reconstruction.
        let m = SimLlm::new(test_kb(), ModelProfile::chatgpt());
        let keys: Vec<String> = vec!["Rome".into(), "Milan".into(), "Lyon".into()];
        let attrs: Vec<String> = vec!["population".into(), "country".into()];
        let grid = m
            .complete(&with_preamble(&render_task(&TaskIntent::FetchGridBatch {
                relation: "city".into(),
                key_attr: "name".into(),
                keys: keys.clone(),
                attributes: attrs.clone(),
            })))
            .text;
        let split = crate::intent::split_grid_answer(&grid, &keys, &attrs);
        for (key, row) in keys.iter().zip(split.chunks(attrs.len())) {
            for (attr, cell) in attrs.iter().zip(row) {
                let single = m
                    .complete(&with_preamble(&render_task(&TaskIntent::FetchAttr {
                        relation: "city".into(),
                        key_attr: "name".into(),
                        key: key.clone(),
                        attribute: attr.clone(),
                    })))
                    .text;
                assert_eq!(
                    cell.as_deref(),
                    Some(single.as_str()),
                    "cell {key} × {attr}"
                );
            }
        }
    }

    #[test]
    fn grid_answer_latency_scales_with_answer_volume() {
        let m = SimLlm::new(test_kb(), ModelProfile::gpt3());
        let grid = |keys: Vec<String>, attributes: Vec<String>| {
            m.complete(&render_task(&TaskIntent::FetchGridBatch {
                relation: "city".into(),
                key_attr: "name".into(),
                keys,
                attributes,
            }))
        };
        let one = grid(vec!["Rome".into()], vec!["population".into()]);
        let four = grid(
            vec!["Rome".into(), "Milan".into()],
            vec!["population".into(), "country".into()],
        );
        // One fixed decode latency per prompt; four cells cost answer
        // tokens only — fusing attributes amortises exactly like fusing
        // keys.
        assert!(four.latency_ms > one.latency_ms);
        assert!(four.latency_ms < 4 * one.latency_ms);
    }

    #[test]
    fn batched_filter_answers_are_bit_identical_to_single_key_path() {
        let m = SimLlm::new(test_kb(), ModelProfile::chatgpt());
        let cond = Condition {
            attribute: "population".into(),
            op: CmpOp::Gt,
            values: vec![PromptValue::Number(1_000_000.0)],
        };
        let keys: Vec<String> = vec!["Rome".into(), "Lyon".into(), "Paris".into()];
        let batched = m
            .complete(&with_preamble(&render_task(&TaskIntent::FilterKeysBatch {
                relation: "city".into(),
                key_attr: "name".into(),
                keys: keys.clone(),
                condition: cond.clone(),
            })))
            .text;
        let split = crate::intent::split_batched_answer(&batched, &keys);
        for (key, sub) in keys.iter().zip(split) {
            let single = m
                .complete(&with_preamble(&render_task(&TaskIntent::CheckFilter {
                    relation: "city".into(),
                    key_attr: "name".into(),
                    key: key.clone(),
                    condition: cond.clone(),
                })))
                .text;
            assert_eq!(sub, Some(single.as_str()), "key {key}");
        }
    }

    #[test]
    fn batched_answer_latency_scales_with_answer_volume() {
        let m = SimLlm::new(test_kb(), ModelProfile::gpt3());
        let batch = |keys: Vec<String>| {
            m.complete(&render_task(&TaskIntent::FetchAttrBatch {
                relation: "city".into(),
                key_attr: "name".into(),
                keys,
                attribute: "population".into(),
            }))
        };
        let one = batch(vec!["Rome".into()]);
        let four = batch(vec![
            "Rome".into(),
            "Milan".into(),
            "Paris".into(),
            "Lyon".into(),
        ]);
        // One fixed decode latency per prompt; the marginal cost of extra
        // keys is answer tokens only — the economics batching exploits.
        assert!(four.latency_ms > one.latency_ms);
        assert!(four.latency_ms < 4 * one.latency_ms);
    }

    #[test]
    fn empty_batch_answers_unknown() {
        let m = oracle();
        let t = TaskIntent::FetchAttrBatch {
            relation: "city".into(),
            key_attr: "name".into(),
            keys: vec![],
            attribute: "population".into(),
        };
        // An empty key list cannot round-trip through the prompt (there is
        // no keys block), so the model sees it as a malformed question.
        assert_eq!(m.complete(&render_task(&t)).text, "Unknown");
    }

    #[test]
    fn unknown_relation_answers_unknown() {
        let m = oracle();
        let t = TaskIntent::ListKeys {
            relation: "volcano".into(),
            key_attr: "name".into(),
            condition: None,
            exclude: std::sync::Arc::new(vec![]),
        };
        assert_eq!(m.complete(&render_task(&t)).text, "Unknown");
    }

    #[test]
    fn nonsense_prompt_answers_unknown() {
        let m = oracle();
        assert_eq!(m.complete("How many squigs are in a bonk?").text, "Unknown");
    }

    #[test]
    fn small_models_recall_fewer_entities() {
        // Statistical check over a synthetic population.
        let mut kb = KnowledgeStore::new();
        for i in 0..300 {
            let e = kb.add_entity(format!("City{i}"), "city", (i as f64) / 300.0);
            kb.add_fact(e, "population", FactValue::Number(1000.0 + i as f64));
        }
        let kb = Arc::new(kb);
        let count = |p: ModelProfile| {
            let m = SimLlm::new(kb.clone(), p);
            kb.entities_of_type("city")
                .iter()
                .filter(|e| m.recalls(e))
                .count()
        };
        let flan = count(ModelProfile::flan());
        let chat = count(ModelProfile::chatgpt());
        let gpt3 = count(ModelProfile::gpt3());
        assert!(flan < chat, "flan {flan} vs chat {chat}");
        assert!(chat < gpt3, "chat {chat} vs gpt3 {gpt3}");
        assert!(gpt3 > 280);
    }

    /// Forty cities over three countries (popularity ties included), for
    /// lists that run to several pages.
    fn list_kb() -> Arc<KnowledgeStore> {
        let mut kb = KnowledgeStore::new();
        let countries: Vec<_> = [("Italy", "IT"), ("France", "FR"), ("Spain", "ES")]
            .into_iter()
            .map(|(name, code)| {
                let c = kb.add_entity(name, "country", 0.9);
                kb.add_alias(c, code);
                c
            })
            .collect();
        for i in 0..40u32 {
            let e = kb.add_entity(format!("City{i}"), "city", f64::from(i % 13) / 13.0);
            kb.add_fact(e, "population", FactValue::Number(f64::from(i) * 61_000.0));
            kb.add_fact(e, "country", FactValue::Entity(countries[i as usize % 3]));
        }
        kb.add_synonym("cities", "city");
        Arc::new(kb)
    }

    /// One list prompt: `relation` and `condition` index small tables,
    /// `n` is the offset of a page prompt or the length of an exclusion
    /// list (the first `n` of the type's names with every third skipped).
    fn list_prompt(
        kb: &KnowledgeStore,
        relation: usize,
        condition: usize,
        exclusion: bool,
        n: usize,
    ) -> String {
        let relation = ["city", "cities", "country", "volcano"][relation];
        let number = |n: f64| PromptValue::Number(n);
        let condition = match condition {
            0 => None,
            1 => Some((CmpOp::Gt, vec![number(1_000_000.0)])),
            2 => Some((CmpOp::Gt, vec![number(1_500_000.0)])),
            3 => Some((CmpOp::Between, vec![number(0.0), number(900_000.0)])),
            _ => Some((CmpOp::Eq, vec![PromptValue::Text("Italy".into())])),
        }
        .map(|(op, values)| Condition {
            attribute: if op == CmpOp::Eq {
                "country"
            } else {
                "population"
            }
            .into(),
            op,
            values,
        });
        let task = if exclusion {
            let names = kb.entities_of_type(&kb.canonical_predicate(relation));
            let exclude = names
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 3 != 2)
                .map(|(_, e)| e.name.clone())
                .take(n)
                .collect();
            TaskIntent::ListKeys {
                relation: relation.into(),
                key_attr: "name".into(),
                condition,
                exclude: Arc::new(exclude),
            }
        } else {
            TaskIntent::ListKeysPage {
                relation: relation.into(),
                key_attr: "name".into(),
                condition,
                offset: n,
            }
        };
        with_preamble(&render_task(&task))
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        /// The belief-list memo is invisible: a model that has answered
        /// earlier list prompts (and memoised their lists) answers each
        /// next one exactly as a fresh model does.
        #[test]
        fn a_model_that_answered_before_answers_as_a_fresh_one(
            prompts in proptest::collection::vec(
                (0usize..5, 0usize..4, 0usize..5, proptest::arbitrary::any::<bool>(), 0usize..45),
                1..16,
            ),
        ) {
            let kb = list_kb();
            let profiles: Vec<ModelProfile> =
                ModelProfile::all().into_iter().chain([ModelProfile::oracle()]).collect();
            let used: Vec<SimLlm> =
                profiles.iter().map(|p| SimLlm::new(kb.clone(), p.clone())).collect();
            for (profile, relation, condition, exclusion, n) in prompts {
                let prompt = list_prompt(&kb, relation, condition, exclusion, n);
                let fresh = SimLlm::new(kb.clone(), profiles[profile].clone());
                proptest::prop_assert_eq!(
                    used[profile].complete(&prompt),
                    fresh.complete(&prompt),
                    "{}",
                    prompt
                );
            }
        }
    }

    #[test]
    fn list_concepts_share_one_memo_entry_per_type() {
        let kb = list_kb();
        let m = SimLlm::new(kb.clone(), ModelProfile::chatgpt());
        for (relation, exclusion, n) in [(0, true, 0), (1, false, 15), (0, false, 30)] {
            m.complete(&list_prompt(&kb, relation, 0, exclusion, n));
        }
        m.clone().complete(&list_prompt(&kb, 0, 1, true, 3));
        // "city" and its synonym "cities" are one concept; the condition
        // makes a second; the clone shares the memo.
        assert_eq!(m.memo.lists.lock().len(), 2);
        assert_eq!(m.complete(&list_prompt(&kb, 3, 0, true, 0)).text, "Unknown");
        assert_eq!(
            m.memo.lists.lock().len(),
            2,
            "an unknown type memoises nothing"
        );
    }

    /// A few-shot preamble in the shape of the paper's Figure 4 (its
    /// text ends where the final `Q: ` line starts), and a second one.
    const FEW_SHOT: &str = "I am a highly intelligent question answering bot. If the \
                            answer is numerical, I will return the number only.\n\n\
                            Q: What is the capital of France?\nA: Paris.\n\
                            Q: How many squigs are in a bonk?\nA: Unknown\n\n";
    const OTHER_SHOT: &str = "Answer concisely. Q: is not a question here.\n";

    /// Prompts over every path that reads the memo: each prompt-seeded
    /// label (fetch, the verbose list wrapper, QA), batched and grid
    /// cells, filters, chain of thought; under the memo's preamble, under
    /// another, with no `Q: ` marker, and shorter than the memo's text.
    fn memo_prompts() -> Vec<String> {
        let fetch = |key: &str, attribute: &str| {
            render_task(&TaskIntent::FetchAttr {
                relation: "city".into(),
                key_attr: "name".into(),
                key: key.into(),
                attribute: attribute.into(),
            })
        };
        let keys: Vec<String> = vec!["Rome".into(), "Lyon".into(), "Atlantis".into()];
        let questions = [
            fetch("Rome", "population"),
            fetch("Lyon", "country"),
            fetch("Atlantis", "population"),
            render_task(&TaskIntent::ListKeys {
                relation: "city".into(),
                key_attr: "name".into(),
                condition: None,
                exclude: Arc::new(vec!["rome ".into(), "PARIS".into()]),
            }),
            render_task(&TaskIntent::ListKeysPage {
                relation: "city".into(),
                key_attr: "name".into(),
                condition: None,
                offset: 1,
            }),
            render_task(&TaskIntent::FetchAttrBatch {
                relation: "city".into(),
                key_attr: "name".into(),
                keys: keys.clone(),
                attribute: "population".into(),
            }),
            render_task(&TaskIntent::FetchGridBatch {
                relation: "city".into(),
                key_attr: "name".into(),
                keys: keys.clone(),
                attributes: vec!["population".into(), "countryCode".into()],
            }),
            render_task(&TaskIntent::CheckFilter {
                relation: "city".into(),
                key_attr: "name".into(),
                key: "Milan".into(),
                condition: Condition {
                    attribute: "population".into(),
                    op: CmpOp::Gt,
                    values: vec![PromptValue::Number(1_000_000.0)],
                },
            }),
            "List the name and population of every city.".to_string(),
            "What is the average population of every city?".to_string(),
        ];
        let mut prompts = Vec::new();
        for question in &questions {
            for preamble in [FEW_SHOT, OTHER_SHOT, ""] {
                prompts.push(format!("{preamble}Q: {question}\nA:"));
            }
            // Chain of thought: an exemplar after the preamble, and the
            // answer's lead-in after the question.
            prompts.push(format!(
                "{FEW_SHOT}Q: List the name of every city.\nA: Let's think step by step.\n\
                 The answer is: Rome.\nQ: {question}\nA: Let's think step by step."
            ));
            // No marker, and the memo's text with the question run on.
            prompts.push(question.clone());
            prompts.push(format!("{FEW_SHOT}{question}"));
        }
        // Shorter than the memo's text, and the text itself.
        prompts.push(FEW_SHOT[..40].to_string());
        prompts.push(FEW_SHOT.trim_end().to_string());
        prompts.push(FEW_SHOT.to_string());
        prompts
    }

    /// A model of `profile` whose memo holds `preamble`.
    fn primed(profile: &ModelProfile, preamble: &str) -> SimLlm {
        let m = SimLlm::new(test_kb(), profile.clone());
        m.complete(&format!("{preamble}Q: What is the capital of Italy?\nA:"));
        assert_eq!(
            m.memo.preamble.get().map(|memo| memo.text.as_str()),
            Some(preamble)
        );
        m
    }

    #[test]
    fn a_model_whose_memo_holds_a_preamble_answers_as_a_fresh_one() {
        let mut narrow = ModelProfile::chatgpt();
        // A window the preamble alone overflows: every prompt under it is
        // cut, by the whole walk.
        narrow.context_window = 20;
        let profiles = ModelProfile::all()
            .into_iter()
            .chain([ModelProfile::oracle(), narrow]);
        for profile in profiles {
            let resumed = primed(&profile, FEW_SHOT);
            // A memo no prompt below starts with: every prompt takes the
            // whole walk, as before the memo.
            let whole = primed(&profile, "Nothing here starts like this.\n");
            for prompt in memo_prompts() {
                let fresh = SimLlm::new(test_kb(), profile.clone()).complete(&prompt);
                assert_eq!(
                    resumed.complete(&prompt),
                    fresh,
                    "{} {prompt:?}",
                    profile.name
                );
                assert_eq!(
                    whole.complete(&prompt),
                    fresh,
                    "{} {prompt:?}",
                    profile.name
                );
            }
            assert_eq!(
                resumed.memo.preamble.get().map(|memo| memo.text.as_str()),
                Some(FEW_SHOT),
                "the first preamble stays"
            );
        }
    }

    #[test]
    fn clones_share_the_preamble_memo() {
        let m = SimLlm::new(test_kb(), ModelProfile::chatgpt());
        m.clone().complete("Q: What is the capital of Italy?\nA:");
        assert!(
            m.memo.preamble.get().is_none(),
            "an empty preamble fills nothing"
        );
        m.clone()
            .complete(&format!("{FEW_SHOT}Q: What is the capital of Italy?\nA:"));
        let memo = m.memo.preamble.get().map(|memo| memo.text.as_str());
        assert_eq!(memo, Some(FEW_SHOT));
        assert_eq!(
            (m.clone().memo.preamble.get()).map(|memo| memo.text.as_str()),
            memo
        );
    }

    #[test]
    fn exclusions_match_as_lower_cased_trimmed_copies() {
        let m = oracle();
        let list = |exclude: Vec<&str>| {
            let t = TaskIntent::ListKeys {
                relation: "city".into(),
                key_attr: "name".into(),
                condition: None,
                exclude: Arc::new(exclude.into_iter().map(String::from).collect()),
            };
            m.complete(&render_task(&t)).text
        };
        assert_eq!(
            list(vec![" rOME", "MILAN\t", "paris", "lyon "]),
            "No more results"
        );
        let partial = list(vec!["ROME", "Mila", "Pariss", "Lyon"]);
        assert!(
            !partial.contains("Rome") && !partial.contains("Lyon"),
            "{partial}"
        );
        assert!(
            partial.contains("Milan") && partial.contains("Paris"),
            "{partial}"
        );
    }

    #[test]
    fn sloppy_like_is_case_insensitive() {
        assert!(sloppy_like("Rome", "r%"));
        assert!(sloppy_like("ROME", "%ome"));
        assert!(!sloppy_like("Rome", "x%"));
    }
}
