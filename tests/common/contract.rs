//! The contract battery: each standing contract of the engine, stated
//! once as a check of a candidate [`Cell`] against a reference.
//!
//! A cell is a model × `GaloisOptions` × world × statement order: one
//! session over the world, asking the model, reading the statements in
//! order for one or more passes. A [`Contract`] says what must hold
//! between two cells' readings, statement by statement and pass by pass:
//! rows in order or as multisets, `QueryStats` equal but for a named set
//! of [`Field`]s, a prompt bill and a virtual clock ordered as stated,
//! equal cache hits. The per-knob batteries (`tests/*_equivalence.rs`,
//! `typed_cells.rs`, `universe_relation.rs`) are lists of cells handed to
//! these checks; the bodies below whose reference is the truth or an
//! earlier pass of the same session hold the same terms. The paper
//! default's readings are pinned once, by `tests/wave_golden.rs`, and
//! the prompt cache's raw hits by prompt class ([`cache_hits`]) by
//! `tests/prompt_cache_census.rs`.
//! ARCHITECTURE.md "Contract battery" maps each test to its contract.

use super::{
    key_batch, multiset, options, pass, permutation, read, small_config, statements, suite, Pass,
    Reading,
};
use galois::core::{
    run_multi_query, AdmissionPolicy, Galois, GaloisOptions, ListStore, MultiQueryReport, Pipeline,
    Planner, PromptBatch, QueryStats, Resilience,
};
use galois::dataset::{build_operator_suite, OperatorFamily, Scenario};
use galois::eval::score_operator;
use galois::llm::intent::{parse_task, TaskIntent};
use galois::llm::{
    ClientStats, Completion, Fault, FaultProfile, FaultyLlm, KeyUniverseStore, LanguageModel,
    ModelProfile, RetryPolicy, SimLlm,
};
use galois::relational::Value;
use proptest::prelude::*;
use std::sync::{Arc, Barrier, Mutex};

/// The model a cell's sessions ask: every contract holds per value.
#[derive(Clone)]
#[allow(clippy::large_enum_variant)] // a test holds a few cells, never a vector of models
pub enum Model {
    /// `SimLlm` answering as the profile does: the oracle, a noisy
    /// profile, or a paged oracle ([`paged`]).
    Profile(ModelProfile),
    /// The oracle with every second line of each multi-key answer dropped:
    /// half the keys (or grid cells) of every batched prompt go down the
    /// fallback ladder, and half of those past its middle rung.
    Dropper,
    /// The oracle with every grid answer's lines reversed. The parser
    /// matches cells by `key ⌁ attr` label, so this must cost nothing.
    Permuter,
    /// A fault-injecting model ([`faulty`]). Every session the cell opens
    /// shares the handle, so each continues the per-prompt fault
    /// schedules where the last left off.
    Faulty(Arc<FaultyLlm>),
}

/// The oracle listing `page` keys a page instead of a whole concept.
pub fn paged(page: usize) -> ModelProfile {
    ModelProfile {
        list_page_size: page,
        ..ModelProfile::oracle()
    }
}

/// `profile` over the world's knowledge, faulting on `faults`' schedule.
pub fn faulty(world: &Scenario, profile: ModelProfile, faults: FaultProfile) -> Arc<FaultyLlm> {
    let inner = SimLlm::new(world.knowledge.clone(), profile);
    Arc::new(FaultyLlm::new(Arc::new(inner), faults))
}

/// The oracle with its multi-key answers rewritten: [`Model::Dropper`]
/// when `drop_lines`, else [`Model::Permuter`].
struct Rewriter {
    inner: SimLlm,
    drop_lines: bool,
}

impl LanguageModel for Rewriter {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn context_window(&self) -> usize {
        self.inner.context_window()
    }
    fn complete(&self, prompt: &str) -> Completion {
        let mut completion = self.inner.complete(prompt);
        let lines = completion.text.lines();
        let kept: Vec<&str> = match parse_task(prompt) {
            Some(TaskIntent::FetchGridBatch { .. }) if !self.drop_lines => lines.rev().collect(),
            Some(
                TaskIntent::FetchGridBatch { .. }
                | TaskIntent::FetchAttrBatch { .. }
                | TaskIntent::FilterKeysBatch { .. },
            ) if self.drop_lines => lines.step_by(2).collect(),
            _ => return completion,
        };
        completion.text = kept.join("\n");
        completion
    }
}

/// One cell of the battery: `model` asked through a session with
/// `options` over `world`, reading `order` for `passes` passes.
#[derive(Clone)]
pub struct Cell<'w> {
    pub world: &'w Scenario,
    pub model: Model,
    pub options: GaloisOptions,
    pub order: Vec<String>,
    pub passes: usize,
}

impl<'w> Cell<'w> {
    /// The oracle under `options`, reading the world's suite once.
    pub fn new(world: &'w Scenario, options: GaloisOptions) -> Self {
        Cell {
            world,
            model: Model::Profile(ModelProfile::oracle()),
            options,
            order: suite(world),
            passes: 1,
        }
    }

    pub fn model(self, model: Model) -> Self {
        Cell { model, ..self }
    }

    pub fn order(self, order: Vec<String>) -> Self {
        Cell { order, ..self }
    }

    pub fn passes(self, passes: usize) -> Self {
        Cell { passes, ..self }
    }

    /// The same cell under other options.
    pub fn with(&self, options: GaloisOptions) -> Self {
        Cell {
            options,
            ..self.clone()
        }
    }

    /// A fresh session of this cell.
    pub fn session(&self) -> Galois {
        self.session_over(self.language_model())
    }

    /// The model a fresh session of this cell asks.
    fn language_model(&self) -> Arc<dyn LanguageModel> {
        let oracle = || SimLlm::new(self.world.knowledge.clone(), ModelProfile::oracle());
        match &self.model {
            Model::Profile(p) => Arc::new(SimLlm::new(self.world.knowledge.clone(), p.clone())),
            Model::Dropper | Model::Permuter => Arc::new(Rewriter {
                inner: oracle(),
                drop_lines: matches!(self.model, Model::Dropper),
            }),
            Model::Faulty(model) => model.clone(),
        }
    }

    /// A fresh session of this cell over `model`.
    fn session_over(&self, model: Arc<dyn LanguageModel>) -> Galois {
        Galois::with_options(model, self.world.database.clone(), self.options.clone())
    }

    /// Every pass's readings, all on one session.
    pub fn read(&self) -> Vec<Pass> {
        let session = self.session();
        (0..self.passes)
            .map(|_| pass(&session, &self.order))
            .collect()
    }

    fn label(&self) -> String {
        let model = match &self.model {
            Model::Profile(p) => format!("{}/page {}", p.name, p.list_page_size),
            Model::Dropper => "dropper".to_string(),
            Model::Permuter => "permuter".to_string(),
            Model::Faulty(_) => "faulty".to_string(),
        };
        let o = &self.options;
        format!(
            "{model} {:?} {:?} K={} store {} {:?} {:?}",
            o.pipeline,
            o.prompt_batch,
            o.parallelism.get(),
            o.list_store.is_on(),
            o.planner,
            o.resilience,
        )
    }
}

/// `QueryStats` fields a contract may leave out of its comparison;
/// `wall_ms`, measured rather than simulated, always is.
#[derive(Clone, Copy, Debug)]
pub enum Field {
    /// `virtual_ms`, the packed clock.
    Clock,
    /// `list_virtual_ms`, `filter_virtual_ms` and `fetch_virtual_ms`.
    Phases,
    /// `serial_virtual_ms`.
    Serial,
    /// `queue_ms`.
    Queue,
    /// `list_prompts`, `filter_prompts` and `fetch_prompts`.
    Prompts,
    /// `prompt_tokens` and `completion_tokens`.
    Tokens,
    /// `retries`, `timeouts`, `rate_limited` and `breaker_fastfails`.
    Resilience,
}

impl Field {
    fn clear(self, s: &mut QueryStats) {
        match self {
            Field::Clock => s.virtual_ms = 0,
            Field::Phases => {
                (s.list_virtual_ms, s.filter_virtual_ms, s.fetch_virtual_ms) = (0, 0, 0);
            }
            Field::Serial => s.serial_virtual_ms = 0,
            Field::Queue => s.queue_ms = 0,
            Field::Prompts => (s.list_prompts, s.filter_prompts, s.fetch_prompts) = (0, 0, 0),
            Field::Tokens => (s.prompt_tokens, s.completion_tokens) = (0, 0),
            Field::Resilience => {
                (s.retries, s.timeouts, s.rate_limited, s.breaker_fastfails) = (0, 0, 0, 0);
            }
        }
    }
}

/// Every virtual clock: what lanes, the schedule and retry backoff move.
pub const CLOCKS: &[Field] = &[Field::Clock, Field::Phases, Field::Serial];

/// The one stats comparator: every field but `wall_ms` and `except`.
pub fn assert_stats_eq(a: &QueryStats, b: &QueryStats, except: &[Field], label: &str) {
    let clear = |s: &QueryStats| {
        let mut s = QueryStats { wall_ms: 0, ..*s };
        except.iter().for_each(|field| field.clear(&mut s));
        s
    };
    assert_eq!(clear(a), clear(b), "{label}");
}

/// How two readings' rows must agree.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Rows {
    InOrder,
    Multiset,
}

/// The order a candidate's count keeps against the reference's. Each
/// statement keeps the non-strict form; `Lt` is strict on the totals.
#[derive(Clone, Copy, Debug)]
pub enum Cmp {
    Lt,
    Le,
    Eq,
    Ge,
}

impl Cmp {
    fn holds(self, candidate: u64, reference: u64) -> bool {
        match self {
            Cmp::Lt => candidate < reference,
            Cmp::Le => candidate <= reference,
            Cmp::Eq => candidate == reference,
            Cmp::Ge => candidate >= reference,
        }
    }

    fn relaxed(self) -> Cmp {
        match self {
            Cmp::Lt => Cmp::Le,
            other => other,
        }
    }
}

/// What must hold between a candidate's readings and a reference's.
#[derive(Clone, Copy)]
pub struct Contract {
    /// Rows, per statement (column names always match).
    pub rows: Rows,
    /// `Some(except)`: `QueryStats` equal but for `except`, per statement.
    pub stats: Option<&'static [Field]>,
    /// The prompt bill, per statement and summed over a pass.
    pub bill: Option<Cmp>,
    /// Equal cache hits, summed over a pass.
    pub hits: bool,
    /// The virtual clock summed over a pass.
    pub clock: Option<Cmp>,
}

impl Contract {
    /// No mode changes `R_M`: the same rows as multisets.
    pub const R_M: Contract = Contract {
        rows: Rows::Multiset,
        stats: None,
        bill: None,
        hits: false,
        clock: None,
    };
    /// Bit-exact: rows in order and every stat.
    pub const BIT_EXACT: Contract = Contract {
        rows: Rows::InOrder,
        stats: Some(&[]),
        ..Contract::R_M
    };
    /// Lanes and the schedule move the clocks only.
    pub const CLOCKS_ONLY: Contract = Contract {
        stats: Some(CLOCKS),
        ..Contract::BIT_EXACT
    };
    /// Retries absorb every fault: only the clocks and the resilience
    /// counters move, and no cell degrades.
    pub const RETRIED: Contract = Contract {
        stats: Some(&[
            Field::Clock,
            Field::Phases,
            Field::Serial,
            Field::Resilience,
        ]),
        ..Contract::BIT_EXACT
    };
    /// The shared lane pool moves the replay's clock and queue only.
    pub const REPLAYED: Contract = Contract {
        stats: Some(&[Field::Clock, Field::Queue]),
        ..Contract::BIT_EXACT
    };

    /// Reads the reference once and holds each candidate to the contract
    /// against it; returns the candidates' readings.
    pub fn check(&self, reference: &Cell, candidates: &[Cell]) -> Vec<Vec<Pass>> {
        let want = reference.read();
        let check = |cell: &Cell| {
            let got = cell.read();
            let label = format!("{} against {}", cell.label(), reference.label());
            self.compare(&want, &got, &label);
            got
        };
        candidates.iter().map(check).collect()
    }

    /// Holds `candidate`'s passes to the contract against `reference`'s,
    /// pass by pass. The reference must have degraded no cell.
    pub fn compare(&self, reference: &[Pass], candidate: &[Pass], label: &str) {
        assert_eq!(reference.len(), candidate.len(), "{label}: passes");
        for (nth, (want, got)) in reference.iter().zip(candidate).enumerate() {
            assert_eq!(want.0.len(), got.0.len(), "{label}: statements");
            for (w, g) in want.0.iter().zip(&got.0) {
                let at = format!("{label}, pass {nth}: {}", w.sql);
                assert_eq!(w.stats.failed_cells, 0, "{at}: the reference degraded");
                assert_eq!(g.columns, w.columns, "{at}: columns");
                match self.rows {
                    Rows::InOrder => assert_eq!(g.rows, w.rows, "{at}: rows"),
                    Rows::Multiset => assert_eq!(multiset(&g.rows), multiset(&w.rows), "{at}"),
                }
                if let Some(except) = self.stats {
                    assert_stats_eq(&g.stats, &w.stats, except, &at);
                }
                if let Some(cmp) = self.bill {
                    let (g, w) = (g.stats.total_prompts(), w.stats.total_prompts());
                    assert!(
                        cmp.relaxed().holds(g as u64, w as u64),
                        "{at}: bill {g} {cmp:?} {w}"
                    );
                }
            }
            let totals = |of: fn(&QueryStats) -> u64| {
                let total = |pass: &Pass| pass.0.iter().map(|r| of(&r.stats)).sum::<u64>();
                (total(got), total(want))
            };
            for (term, cmp, (g, w)) in [
                ("bill", self.bill, totals(|s| s.total_prompts() as u64)),
                (
                    "hits",
                    self.hits.then_some(Cmp::Eq),
                    totals(|s| s.cache_hits as u64),
                ),
                ("clock", self.clock, totals(|s| s.virtual_ms)),
            ] {
                if let Some(cmp) = cmp {
                    assert!(
                        cmp.holds(g, w),
                        "{label}, pass {nth}: {term} {g} {cmp:?} {w}"
                    );
                }
            }
        }
    }
}

/// A multi-query replay's outcomes, in input order, as one pass.
pub fn replayed(report: &MultiQueryReport, queries: &[String]) -> Vec<Pass> {
    let outcomes = report.outcomes.iter().map(|o| &o.result);
    let readings = (outcomes.zip(queries))
        .map(|(result, sql)| Reading {
            sql: sql.clone(),
            columns: result.relation.column_names(),
            rows: result.relation.rows.clone(),
            stats: result.stats,
            served: 0,
            built: 0,
        })
        .collect();
    vec![(readings, ClientStats::default())]
}

/// Fallback safety: with half of every multi-key answer dropped
/// ([`Model::Dropper`]), at K ∈ {1, 8}, the fallback ladder restores the
/// paper default's rows in order — over twelve suite statements and the
/// operator suite's `LIMIT` windows, so an early stop must wait for the
/// verdicts that fell back. Only the prompt bill may grow.
pub fn fallback_restores_rows(batches: &[PromptBatch], pipelines: &[Pipeline]) {
    let world = Scenario::generate_with(42, small_config());
    let windows = build_operator_suite(&world.world)
        .into_iter()
        .filter(|q| q.family == OperatorFamily::Limit);
    let mut order = suite(&world)[..12].to_vec();
    order.extend(windows.map(|q| q.sql));
    let reference = Cell::new(&world, GaloisOptions::default()).order(order);
    let mut cells = Vec::new();
    for &batch in batches {
        for &pipeline in pipelines {
            for lanes in [1, 8] {
                let options = options(ListStore::Off, pipeline, batch, lanes);
                cells.push(reference.with(options).model(Model::Dropper));
            }
        }
    }
    let contract = Contract {
        rows: Rows::InOrder,
        ..Contract::R_M
    };
    contract.check(&reference, &cells);
}

/// Oracle exactness: every operator-suite statement the cell's session
/// runs passes its check against ground truth
/// (`galois_eval::score_operator`), whatever the cell's order.
pub fn operator_suite_is_exact(cell: &Cell) {
    let session = cell.session();
    for q in build_operator_suite(&cell.world.world) {
        let got = session.execute(&q.sql);
        let relation = got.as_ref().ok().map(|r| &r.relation);
        let (_, passed) = score_operator(cell.world, &q, relation);
        let label = cell.label();
        assert!(passed, "{label}: op{} ({:?}): {}", q.id, q.family, q.sql);
    }
}

/// The knob a result-invariance property turns on in its candidate cell
/// and leaves off in its reference.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Knob {
    /// `PromptBatch::Off` → the drawn `Grid{B, 1}` or `Grid{B, A}`.
    Batch,
    /// Key batching, `Grid{B, 1}` → `Grid{B, A}`.
    Grid,
    /// `Pipeline::Off` → `Pipeline::Streaming`.
    Streaming,
    /// `ListStore::Off` → `ListStore::On`, over two passes.
    Store,
    /// `Planner::Heuristic` → `Planner::CostBased`.
    Planner,
}

/// A cell drawn from the options matrix.
#[derive(Clone)]
pub struct Draw {
    seed: u64,
    order: u64,
    profile: ModelProfile,
    pub options: GaloisOptions,
    keys: usize,
    attrs: usize,
}

/// Draws a cell of the options matrix: a small world's seed, eight of its
/// suite and operator statements in a drawn order, a model, and
/// store × pipeline × batch × K. The model is the oracle, listing whole
/// concepts or four keys a page; with `noisy`, half the draws take one of
/// `flan`, `tk`, `gpt3` and `chatgpt` instead.
pub fn drawn(noisy: bool) -> BoxedStrategy<Draw> {
    (
        (0u64..10_000, any::<u64>()),
        (any::<bool>(), any::<bool>(), 0usize..4),
        (any::<bool>(), any::<bool>(), 0u8..3),
        prop::sample::select(vec![1usize, 2, 8]),
        (1usize..26, 1usize..7),
    )
        .prop_map(
            move |(world, model, (store, streaming, batch), lanes, (keys, attrs))| {
                let ((seed, order), (paged_four, noisy_draw, which)) = (world, model);
                let mut profile = match noisy && noisy_draw {
                    true => ModelProfile::all().swap_remove(which),
                    false => ModelProfile::oracle(),
                };
                if paged_four {
                    profile.list_page_size = 4;
                }
                let batches = [
                    PromptBatch::Off,
                    key_batch(keys),
                    PromptBatch::Grid { keys, attrs },
                ];
                let store = if store { ListStore::On } else { ListStore::Off };
                let pipeline = if streaming {
                    Pipeline::Streaming
                } else {
                    Pipeline::Off
                };
                let options = options(store, pipeline, batches[usize::from(batch)], lanes);
                Draw {
                    seed,
                    order,
                    profile,
                    options,
                    keys,
                    attrs,
                }
            },
        )
}

impl Draw {
    pub fn world(&self) -> Scenario {
        Scenario::generate_with(self.seed, small_config())
    }

    /// The drawn cell over `world` (which [`Draw::world`] made).
    pub fn cell<'w>(&self, world: &'w Scenario) -> Cell<'w> {
        let all = statements(world);
        let order = permutation(all.len(), self.order).into_iter().take(8);
        let order = order.map(|i| all[i].clone()).collect();
        let model = Model::Profile(self.profile.clone());
        Cell::new(world, self.options.clone())
            .model(model)
            .order(order)
    }
}

/// Result invariance, with the oracle's prompt economics. Each draw is
/// checked twice. First on the oracle listing whole concepts — no
/// fallback fires, no page is fetched ahead: the drawn options read the
/// same rows (as multisets) with `knob` on as with it off; batching, grid
/// fusion, the store and the cost planner (with the store off) never
/// out-spend their reference; streaming never under-spends it; both take
/// its cache hits. Then, where the drawn model (noisy or paged) or store
/// differs from that, on the drawn cell: the rows alone. The store's
/// second pass lists nothing on either oracle.
pub fn knob_is_invariant(knob: Knob, draw: &Draw) {
    let world = draw.world();
    let drawn = draw.cell(&world);
    let (mut off, mut on) = (drawn.options.clone(), drawn.options.clone());
    let (keys, grid) = (
        key_batch(draw.keys),
        PromptBatch::Grid {
            keys: draw.keys,
            attrs: draw.attrs,
        },
    );
    match knob {
        Knob::Batch if on.prompt_batch == PromptBatch::Off => on.prompt_batch = keys,
        Knob::Batch => off.prompt_batch = PromptBatch::Off,
        Knob::Grid => (off.prompt_batch, on.prompt_batch) = (keys, grid),
        Knob::Streaming => (off.pipeline, on.pipeline) = (Pipeline::Off, Pipeline::Streaming),
        Knob::Store => (off.list_store, on.list_store) = (ListStore::Off, ListStore::On),
        Knob::Planner => (off.planner, on.planner) = (Planner::Heuristic, Planner::CostBased),
    }
    let passes = if knob == Knob::Store { 2 } else { 1 };
    let check = |contract: Contract, reference: Cell, on: GaloisOptions| {
        let got = contract.check(&reference, &[reference.with(on)]);
        let oracle = matches!(&reference.model, Model::Profile(p) if p.name == "oracle");
        if knob == Knob::Store && oracle {
            for warm in &got[0][1].0 {
                let sql = &warm.sql;
                assert_eq!(warm.stats.list_prompts, 0, "{sql}: the warm pass listed");
            }
        }
    };
    // The cost planner prices a step over the warm universes earlier
    // statements left in the store: its bill is stated without one.
    let priced = |options: &GaloisOptions| match knob {
        Knob::Planner => GaloisOptions {
            list_store: ListStore::Off,
            ..options.clone()
        },
        _ => options.clone(),
    };
    let spend = if knob == Knob::Streaming {
        Cmp::Ge
    } else {
        Cmp::Le
    };
    let economics = Contract {
        bill: Some(spend),
        hits: matches!(knob, Knob::Streaming | Knob::Store),
        ..Contract::R_M
    };
    let whole = drawn.with(priced(&off)).passes(passes);
    let whole = whole.model(Model::Profile(ModelProfile::oracle()));
    check(economics, whole.clone(), priced(&on));
    if draw.profile != ModelProfile::oracle() || whole.options != off {
        check(Contract::R_M, drawn.with(off).passes(passes), on);
    }
}

/// The serving stack's cell over the x4 world `seed`: the suite and the
/// operator suite, as `profile` answers them.
fn serving(world: &Scenario, profile: ModelProfile) -> Cell<'_> {
    let cell = Cell::new(world, GaloisOptions::serving()).model(Model::Profile(profile));
    cell.order(statements(world))
}

/// Served ≡ built. Pass 2 of a serving session builds every table from
/// the store and asks nothing; passes 3 and 4 are handed the relations.
/// Per statement they read pass 2's rows in order and every `QueryStats`
/// field, every step is served, and each pass adds the same to the
/// client's counters.
pub fn served_reads_what_built_read(seed: u64, profile: ModelProfile) {
    let world = Scenario::generate_scaled(seed, 4);
    let cell = serving(&world, profile.clone());
    let session = cell.session();
    let passes: Vec<Pass> = (0..4).map(|_| pass(&session, &cell.order)).collect();
    let built = &passes[1];
    let label = format!("world {seed} x4 ({})", profile.name);
    assert!(
        built.0.iter().any(|r| r.built > 0),
        "{label}: pass 2 builds"
    );
    assert!(
        built.0.iter().any(|r| r.stats.cache_hits > 0),
        "{label}: from the stores"
    );
    assert_eq!(built.1.prompts, 0, "{label}: and asks nothing");
    for (nth, later) in passes.iter().enumerate().skip(2) {
        let label = format!("{label}, pass {} against pass 2", nth + 1);
        let (built, later) = (std::slice::from_ref(built), std::slice::from_ref(later));
        Contract::BIT_EXACT.compare(built, later, &label);
        assert_eq!(later[0].1, built[0].1, "{label}: client stats");
        for (l, b) in later[0].0.iter().zip(&built[0].0) {
            let every_step = (b.served + b.built, 0);
            assert_eq!((l.served, l.built), every_step, "{label}: {}", l.sql);
        }
    }
    let kept = session.typed_stats();
    assert_eq!(
        kept.relations, kept.universes,
        "{label}: one table a universe"
    );
}

/// `LlmClient::clear_cache` retires every relation: on the x4 world
/// `seed`, the pass after it asks the model again and reads, after
/// `kept` served passes, exactly what it reads after `barely` passes —
/// and the rows the last served pass read.
pub fn clearing_the_cache_retires_what_is_kept(seed: u64, barely: usize, kept: usize) {
    let world = Scenario::generate_scaled(seed, 4);
    let cell = serving(&world, ModelProfile::oracle());
    let after_clear = |warm_passes: usize| {
        let session = cell.session();
        let before = (0..warm_passes).map(|_| pass(&session, &cell.order)).last();
        session.client().clear_cache();
        (before.expect("a warm pass"), pass(&session, &cell.order))
    };
    let (_, barely) = after_clear(barely);
    let (before, kept) = after_clear(kept);
    assert!(
        before.0.iter().all(|r| r.built == 0),
        "the last pass was served"
    );
    assert!(kept.1.prompts > 0, "the cleared session prompts again");
    assert_eq!(barely.1, kept.1, "client stats after clear_cache");
    let (before, barely, kept) = ([before], [barely], [kept]);
    Contract::BIT_EXACT.compare(&barely, &kept, "after clear_cache");
    let rows = Contract {
        rows: Rows::InOrder,
        ..Contract::R_M
    };
    rows.compare(&before, &kept, "across clear_cache");
}

/// A universe replaced in a shared store retires the relation built over
/// the old list: on the x4 world `seed`, a session capped at one
/// ten-key page serves the partial frontier as terminal — and keeps its
/// ten-row table — until an uncapped session pages past it and
/// republishes; its next statements read the longer list, as a fresh
/// session's do.
pub fn a_republished_universe_retires_what_is_kept(seed: u64) {
    let world = Scenario::generate_scaled(seed, 4);
    let store = Arc::new(KeyUniverseStore::new());
    let sql = [
        "SELECT name, population FROM city".to_string(),
        "SELECT name, country, population FROM city".to_string(),
    ];
    let session = |max_list_iterations: usize| {
        let options = GaloisOptions {
            max_list_iterations,
            list_store: ListStore::Shared(Arc::clone(&store)),
            ..GaloisOptions::serving()
        };
        let cell = Cell::new(&world, options).model(Model::Profile(paged(10)));
        cell.order(sql.to_vec()).session()
    };
    let capped = session(1);
    let partial = (0..4).map(|_| pass(&capped, &sql)).last();
    let served = partial
        .expect("a pass")
        .0
        .iter()
        .map(|r| r.served)
        .sum::<usize>();
    assert_eq!(served, 2, "the partial frontier is served");
    assert_eq!(capped.typed_stats().relation_rows, 10);
    let full = pass(&session(100), &sql);
    let cities = world.world.cities.len();
    assert_eq!(full.0[0].rows.len(), cities);
    let republished = pass(&capped, &sql);
    let fresh = pass(&session(1), &sql);
    for ((republished, full), fresh) in republished.0.iter().zip(&full.0).zip(&fresh.0) {
        assert_eq!(republished.rows, full.rows, "{}", full.sql);
        assert_eq!(republished.rows, fresh.rows, "{}", full.sql);
    }
    assert_eq!(
        republished.0[0].served, 0,
        "the old table is not the list's"
    );
    assert_eq!(capped.typed_stats().relation_rows, cities);
}

/// Two threads running the same warm statements race to publish and to
/// be served: on the x4 world `seed`, both read the single-threaded rows.
pub fn two_threads_read_the_same_rows(seed: u64) {
    let world = Scenario::generate_scaled(seed, 4);
    let cell = serving(&world, ModelProfile::oracle());
    let rows = |session: &Galois| -> Vec<Vec<Vec<Value>>> {
        let (readings, _) = pass(session, &cell.order);
        readings.into_iter().map(|reading| reading.rows).collect()
    };
    // One pass: everything is stored, little is published yet. The plans
    // settle in the second, so a twin session's second pass is the
    // reference.
    let (session, twin) = (cell.session(), cell.session());
    rows(&session);
    rows(&twin);
    let expected = rows(&twin);
    let start = Barrier::new(2);
    std::thread::scope(|scope| {
        let worker = || {
            start.wait();
            (0..3).map(|_| rows(&session)).collect::<Vec<_>>()
        };
        let workers = [scope.spawn(worker), scope.spawn(worker)];
        for worker in workers {
            for pass in worker.join().expect("worker panicked") {
                for ((got, want), sql) in pass.iter().zip(&expected).zip(&cell.order) {
                    assert_eq!(got, want, "{sql}");
                }
            }
        }
    });
    let kept = session.typed_stats();
    assert_eq!(kept.relations, kept.universes);
    assert!(kept.steps_served > 0);
}

/// One pass's raw prompt-cache hits, by prompt class: list prompts
/// (exclusion-list iterations and offset pages) and keyed prompts, the
/// ones whose hits the protocol bills by signature instead — under the
/// multi-key protocol every filter and fetch prompt: grid prompts, key
/// batches and single-key fallbacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheHits {
    pub list: usize,
    pub keyed: usize,
}

/// A model that counts the requests its client sends, one per
/// prompt-cache miss, by prompt class. A re-ask of the client's retry
/// loop is no request of its own: with resilience on, the client asks a
/// prompt again at once while the answer is a fault or slower than
/// `RetryPolicy::TIMEOUT_MS` and the retry budget lasts (the rule of
/// `LlmClient::call_model`, mirrored here).
struct Requests {
    model: Arc<dyn LanguageModel>,
    max_retries: u32,
    /// The prompt whose next ask is a re-ask, and its retries so far.
    retrying: Mutex<Option<(String, u32)>>,
    /// Requests of list prompts, then of every other prompt.
    sent: Mutex<[usize; 2]>,
}

impl LanguageModel for Requests {
    fn name(&self) -> &str {
        self.model.name()
    }
    fn context_window(&self) -> usize {
        self.model.context_window()
    }
    fn complete(&self, prompt: &str) -> Completion {
        self.try_complete(prompt)
            .unwrap_or_else(|fault| fault.degraded)
    }
    fn try_complete(&self, prompt: &str) -> Result<Completion, Fault> {
        let open = self.retrying.lock().expect("unpoisoned").take();
        let retries = match open {
            Some((asked, retries)) if asked == prompt => retries + 1,
            _ => {
                let list = matches!(
                    parse_task(prompt),
                    Some(TaskIntent::ListKeys { .. } | TaskIntent::ListKeysPage { .. })
                );
                self.sent.lock().expect("unpoisoned")[usize::from(!list)] += 1;
                0
            }
        };
        let answer = self.model.try_complete(prompt);
        let again = answer
            .as_ref()
            .map_or(true, |c| c.latency_ms > RetryPolicy::TIMEOUT_MS);
        if again && retries < self.max_retries {
            *self.retrying.lock().expect("unpoisoned") = Some((prompt.to_string(), retries));
        }
        answer
    }
    fn signature(&self) -> String {
        self.model.signature()
    }
}

/// The prompt-cache census: each of the cell's passes, read by `run` on
/// one session, counted by [`CacheHits`]. Every prompt a statement fires
/// is one lookup of the prompt cache, a hit or a miss, and every miss is
/// one request to the model, so a class's hits are the prompts it fired
/// less the requests it sent. The requests must add up to the client's
/// misses (a breaker fast-fail, a miss that sends none, would fail that).
fn census(cell: &Cell, run: impl Fn(&Galois) -> Vec<QueryStats>) -> Vec<CacheHits> {
    let label = cell.label();
    assert_ne!(
        cell.options.prompt_batch,
        PromptBatch::Off,
        "{label}: no keyed prompt"
    );
    let max_retries = match cell.options.resilience {
        Resilience::On(policy) => policy.max_retries,
        Resilience::Off => 0,
    };
    let requests = Arc::new(Requests {
        model: cell.language_model(),
        max_retries,
        retrying: Mutex::default(),
        sent: Mutex::default(),
    });
    let session = cell.session_over(requests.clone());
    (0..cell.passes)
        .map(|nth| {
            session.client().reset_stats();
            let stats = run(&session);
            let [list, keyed] = std::mem::take(&mut *requests.sent.lock().expect("unpoisoned"));
            let misses = session.session_stats().prompts;
            assert_eq!(
                list + keyed,
                misses,
                "{label}, pass {nth}: a request a miss"
            );
            let hits = |fired: fn(&QueryStats) -> usize, sent: usize| {
                let fired = stats.iter().map(fired).sum::<usize>();
                let hits = fired.checked_sub(sent);
                hits.unwrap_or_else(|| panic!("{label}, pass {nth}: {sent} requests of {fired}"))
            };
            CacheHits {
                list: hits(|s| s.list_prompts, list),
                keyed: hits(|s| s.filter_prompts + s.fetch_prompts, keyed),
            }
        })
        .collect()
}

/// The census of the cell's statements, read in order.
pub fn cache_hits(cell: &Cell) -> Vec<CacheHits> {
    census(cell, |session| {
        (cell.order.iter())
            .map(|sql| read(session, sql).stats)
            .collect()
    })
}

/// The census of `run_multi_query` replays of the cell's statements,
/// dealt round-robin to `sessions` sessions.
pub fn replayed_cache_hits(cell: &Cell, sessions: usize) -> Vec<CacheHits> {
    let queries: Vec<&str> = cell.order.iter().map(String::as_str).collect();
    let session_of: Vec<usize> = (0..queries.len()).map(|i| i % sessions).collect();
    census(cell, |session| {
        let policy = AdmissionPolicy::default();
        let report = run_multi_query(session, &queries, &session_of, &policy).expect("replays");
        report.outcomes.iter().map(|o| o.result.stats).collect()
    })
}
