//! The traced run: per-layer metrics.
//!
//! Three sources, all on the benchmark's side of the public API:
//!
//! * **traced passes** — each statement is driven stage by stage
//!   (`galois_sql::parse` → plan/compile → `execute_compiled`) with a
//!   span around every stage and, through [`TimedModel`], around every
//!   model call; counts (`*_per_query`, shares) come from the same
//!   passes, so they describe *this* workload;
//! * **probes** — pure functions and stores timed in isolation over a
//!   fixed probe corpus (the exchanges of an x4 world under both
//!   stacks), so every time reads non-zero on every workload and a
//!   layer's cost is `count × ns per operation`;
//! * **set-up** — the dataset stages, timed where they run.
//!
//! Times are normalised by the calibration runs that bracket them.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use galois_core::clean::clean_to_type;
use galois_core::compile::compile;
use galois_core::parse::{parse_boolean_answer, parse_list_answer, parse_value_answer};
use galois_core::prompts::PromptBuilder;
use galois_core::{
    run_multi_query, AdmissionPolicy, Galois, GaloisResult, Planner, QueryStats, Scheduler,
};
use galois_eval::{match_records, relation_to_records};
use galois_llm::intent::{parse_task, split_grid_answer};
use galois_llm::tokenizer::count_tokens;
use galois_llm::{
    lane_schedule, Completion, EventClock, KeyUniverse, KeyUniverseStore, LanePool, LanguageModel,
    LlmClient, ModelProfile, Parallelism, SimLlm, SubEntryLookup, TaskIntent, Usage,
};
use galois_relational::cost::explain_relation;

use crate::calibrate::{norm_factor, Calibrator};
use crate::metrics::Report;
use crate::models::{Exchange, ModelCounters, TimedModel};
use crate::stats::{iqr_share, median};
use crate::trace::{self_times, Span, Tracer};
use crate::workload::{
    digest, measure, panel, prepare, verify, PassCost, Prepared, Spec, QUICK_SCALE,
};

/// Untraced passes of a traced run: at least this many, for at least
/// this much statement time; then the traced ones.
const UNTRACED_PASSES: usize = 3;
const UNTRACED_SECONDS: f64 = 0.5;
const TRACED_PASSES: u32 = 2;
/// Sessions and in-flight cap of the multi-query probe (the shape of
/// the `galois_multiquery` row of `BENCH_e2e.json`).
const MULTI_SESSIONS: usize = 16;
const MULTI_INFLIGHT: usize = 14;
/// How long each probe repeats its round, at least.
const PROBE_MIN_NS: u128 = 25_000_000;
/// At most this many recorded prompts are replayed through the live
/// model for `llm.simllm.complete_us_per_call` (evenly strided).
const SIMLLM_SAMPLE: usize = 20_000;

/// Raw nanoseconds per operation of `round`, which performs `ops`
/// operations; repeated until the probe has run for [`PROBE_MIN_NS`].
fn ns_per_op(ops: usize, mut round: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut rounds = 0u32;
    while rounds == 0 || started.elapsed().as_nanos() < PROBE_MIN_NS {
        round();
        rounds += 1;
    }
    started.elapsed().as_nanos() as f64 / (f64::from(rounds) * ops.max(1) as f64)
}

/// A model that costs nothing, so a client probe times the client.
struct NullModel;

impl LanguageModel for NullModel {
    fn name(&self) -> &str {
        "null"
    }

    fn context_window(&self) -> usize {
        1 << 20
    }

    fn complete(&self, _prompt: &str) -> Completion {
        Completion {
            text: "Unknown".into(),
            usage: Usage::default(),
            latency_ms: 1,
        }
    }
}

/// What one traced pass measured.
struct TracedPass {
    /// Sum of the per-statement `query` spans, raw nanoseconds.
    total_ns: f64,
    /// Sum of the stage spans under them (parse + plan + execute).
    stages_ns: f64,
    results: Vec<Option<GaloisResult>>,
}

/// Drives one pass stage by stage, mirroring `Galois::execute`: parse,
/// then the planner the session is configured with, then
/// `execute_compiled` (or the plan render, for `EXPLAIN`).
fn traced_pass(
    session: &Galois,
    timed: &TimedModel,
    tracer: &Tracer,
    statements: &[String],
    pass: u32,
) -> TracedPass {
    let pass_span = tracer.begin("pass", 0, pass, 0);
    let mut results = Vec::with_capacity(statements.len());
    let (mut total_ns, mut stages_ns) = (0.0, 0.0);
    for (index, sql) in statements.iter().enumerate() {
        let query = index as u32;
        let query_span = tracer.begin("query", pass_span, pass, query);
        let query_started = Instant::now();
        let mut stage = |name: &'static str, work: &mut dyn FnMut(u64)| {
            let span = tracer.begin(name, query_span, pass, query);
            let started = Instant::now();
            work(span);
            stages_ns += started.elapsed().as_nanos() as f64;
            tracer.end(span);
        };
        let mut parsed = None;
        stage("sql.parse", &mut |_| parsed = galois_sql::parse(sql).ok());
        let mut result = None;
        match parsed {
            None => {}
            Some(statement) if statement.is_explain() => {
                stage("core.plan_choice.explain", &mut |_| {
                    result = session.explain(sql).ok().map(|text| GaloisResult {
                        relation: explain_relation(&text),
                        stats: QueryStats::default(),
                    });
                });
            }
            Some(statement) => {
                let mut compiled = None;
                stage("core.plan", &mut |_| {
                    compiled = match session.options().planner {
                        Planner::Heuristic => session
                            .database()
                            .plan_statement(statement.select())
                            .ok()
                            .and_then(|plan| {
                                compile(
                                    &plan,
                                    session.database().catalog(),
                                    &session.options().compile,
                                )
                                .ok()
                            }),
                        Planner::CostBased => {
                            session.plan(sql).ok().map(|planned| planned.compiled)
                        }
                    };
                });
                if let Some(compiled) = compiled {
                    stage("core.session.execute", &mut |span| {
                        timed.enter(span, pass, query);
                        result = session.execute_compiled(&compiled).ok();
                    });
                }
            }
        }
        total_ns += query_started.elapsed().as_nanos() as f64;
        tracer.end(query_span);
        results.push(result);
    }
    tracer.end(pass_span);
    TracedPass {
        total_ns,
        stages_ns,
        results,
    }
}

/// The probe corpus: what an x4 world's suite asks and is answered,
/// once per prompt protocol (one key per prompt under a noisy profile,
/// so cleaning has work; grid-fused under the oracle).
struct Corpus {
    single: Vec<Exchange>,
    grid: Vec<Exchange>,
}

fn record_suite(spec: &Spec, seed: u64) -> Vec<Exchange> {
    let prepared = prepare(spec, seed, QUICK_SCALE, Some(&Arc::new(Tracer::new())));
    prepared.recorded
}

impl Corpus {
    fn record(seed: u64) -> Corpus {
        Corpus {
            single: record_suite(Spec::by_name("paper_noisy").expect("a workload"), seed),
            grid: record_suite(Spec::by_name("serving_warm").expect("a workload"), seed),
        }
    }

    fn all(&self) -> impl Iterator<Item = &Exchange> {
        self.single.iter().chain(&self.grid)
    }
}

/// The pure-function and store probes: `(metric, raw reading)` pairs.
/// The caller normalises the times by the calibration runs around this
/// call.
fn probes(spec: &Spec, prepared: &Prepared, corpus: &Corpus) -> Vec<(&'static str, f64)> {
    let mut raw = Vec::new();
    let statements = &prepared.statements;
    let database = &prepared.scenario.database;
    let queries = statements.len();

    // --- front end -----------------------------------------------------
    raw.push((
        "sql.tokenize_ns_per_query",
        ns_per_op(queries, || {
            for sql in statements {
                black_box(galois_sql::lexer::tokenize(black_box(sql)).ok());
            }
        }),
    ));
    raw.push((
        "sql.parse_ns_per_query",
        ns_per_op(queries, || {
            for sql in statements {
                black_box(galois_sql::parse(black_box(sql)).ok());
            }
        }),
    ));
    let parsed: Vec<_> = statements
        .iter()
        .map(|sql| galois_sql::parse(sql).expect("generated SQL parses"))
        .collect();
    raw.push((
        "relational.plan_ns_per_query",
        ns_per_op(queries, || {
            for statement in &parsed {
                black_box(database.plan_statement(black_box(statement.select())).ok());
            }
        }),
    ));
    let plans: Vec<_> = parsed
        .iter()
        .map(|s| {
            database
                .plan_statement(s.select())
                .expect("generated SQL plans")
        })
        .collect();
    let compile_options = spec.options().compile;
    raw.push((
        "core.compile.ns_per_query",
        ns_per_op(queries, || {
            for plan in &plans {
                black_box(compile(black_box(plan), database.catalog(), &compile_options).ok());
            }
        }),
    ));
    let steps: usize = plans
        .iter()
        .filter_map(|plan| compile(plan, database.catalog(), &compile_options).ok())
        .map(|compiled| compiled.steps.len())
        .sum();
    raw.push((
        "core.compile.steps_per_query",
        steps as f64 / queries as f64,
    ));
    let fresh;
    let planner_session = match &prepared.warm {
        Some(warm) => warm,
        None => {
            fresh = prepared.fresh_session(spec, Arc::clone(&prepared.model));
            &fresh
        }
    };
    raw.push((
        "core.plan_choice.plan_ns_per_query",
        ns_per_op(queries, || {
            for sql in statements {
                black_box(planner_session.plan(black_box(sql)).ok());
            }
        }),
    ));
    raw.push((
        "core.plan_choice.explain_ns_per_query",
        ns_per_op(queries, || {
            for sql in statements {
                black_box(planner_session.explain(black_box(sql)).ok());
            }
        }),
    ));

    // --- prompts, answers, cleaning (probe corpus) ---------------------
    let intents: Vec<(TaskIntent, &Exchange)> = corpus
        .all()
        .filter_map(|exchange| Some((parse_task(&exchange.0)?, exchange)))
        .collect();
    let builder = PromptBuilder::for_model("chatgpt");
    let mut rendered_bytes = 0usize;
    raw.push((
        "core.prompts.render_ns_per_prompt",
        ns_per_op(intents.len(), || {
            rendered_bytes = intents
                .iter()
                .map(|(intent, _)| black_box(builder.task(intent)).len())
                .sum();
        }),
    ));
    raw.push((
        "core.prompts.bytes_per_prompt",
        rendered_bytes as f64 / intents.len().max(1) as f64,
    ));
    let answers_of = |wanted: fn(&TaskIntent) -> bool| -> Vec<&str> {
        intents
            .iter()
            .filter(|(intent, _)| wanted(intent))
            .map(|(_, exchange)| exchange.1.text.as_str())
            .collect()
    };
    let lists = answers_of(|i| {
        matches!(
            i,
            TaskIntent::ListKeys { .. } | TaskIntent::ListKeysPage { .. }
        )
    });
    let values = answers_of(|i| matches!(i, TaskIntent::FetchAttr { .. }));
    let booleans = answers_of(|i| matches!(i, TaskIntent::CheckFilter { .. }));
    raw.push((
        "core.parse.list_ns_per_answer",
        ns_per_op(lists.len(), || {
            for text in &lists {
                black_box(parse_list_answer(black_box(text)));
            }
        }),
    ));
    raw.push((
        "core.parse.value_ns_per_answer",
        ns_per_op(values.len(), || {
            for text in &values {
                black_box(parse_value_answer(black_box(text)));
            }
        }),
    ));
    raw.push((
        "core.parse.boolean_ns_per_answer",
        ns_per_op(booleans.len(), || {
            for text in &booleans {
                black_box(parse_boolean_answer(black_box(text)));
            }
        }),
    ));
    let cleaning = spec.options().cleaning;
    let cells: Vec<_> = intents
        .iter()
        .filter_map(|(intent, exchange)| {
            let TaskIntent::FetchAttr {
                relation,
                attribute,
                ..
            } = intent
            else {
                return None;
            };
            let schema = &database.catalog().get(relation).ok()?.schema;
            let column = &schema.columns[schema.index_of(attribute)?];
            Some((parse_value_answer(&exchange.1.text)?, column.data_type))
        })
        .collect();
    raw.push((
        "core.clean.ns_per_cell",
        ns_per_op(cells.len(), || {
            for (answer, data_type) in &cells {
                black_box(clean_to_type(black_box(answer), *data_type, &cleaning));
            }
        }),
    ));
    let prompt_kb = corpus.all().map(|(prompt, _)| prompt.len()).sum::<usize>() as f64 / 1024.0;
    let per_corpus = ns_per_op(1, || {
        for (prompt, _) in corpus.all() {
            black_box(count_tokens(black_box(prompt)));
        }
    });
    raw.push(("llm.tokenizer.ns_per_kb", per_corpus / prompt_kb.max(1e-9)));
    raw.push((
        "llm.intent.parse_task_ns_per_prompt",
        ns_per_op(intents.len(), || {
            for (_, exchange) in &intents {
                black_box(parse_task(black_box(&exchange.0)));
            }
        }),
    ));
    let grids: Vec<(&[String], &[String], &str)> = intents
        .iter()
        .filter_map(|(intent, exchange)| match intent {
            TaskIntent::FetchGridBatch {
                keys, attributes, ..
            } => Some((
                keys.as_slice(),
                attributes.as_slice(),
                exchange.1.text.as_str(),
            )),
            _ => None,
        })
        .collect();
    raw.push((
        "llm.intent.split_grid_ns_per_answer",
        ns_per_op(grids.len(), || {
            for (keys, attributes, text) in &grids {
                black_box(split_grid_answer(black_box(text), keys, attributes));
            }
        }),
    ));

    // --- client and stores ----------------------------------------------
    let mut prompts: Vec<&str> = corpus.all().map(|(prompt, _)| prompt.as_str()).collect();
    prompts.sort_unstable();
    prompts.dedup();
    // One cold client per round for the miss path; the last one, now
    // holding every prompt, serves the hit path.
    let mut client = LlmClient::new(Arc::new(NullModel));
    raw.push((
        "llm.client.miss_ns_per_prompt",
        ns_per_op(prompts.len(), || {
            client = LlmClient::new(Arc::new(NullModel));
            for prompt in &prompts {
                black_box(client.complete(prompt));
            }
        }),
    ));
    raw.push((
        "llm.client.hit_ns_per_prompt",
        ns_per_op(prompts.len(), || {
            for prompt in &prompts {
                black_box(client.complete(prompt));
            }
        }),
    ));
    let signatures: Vec<String> = (0..prompts.len())
        .map(|i| format!("city|name|population|key {i}"))
        .collect();
    raw.push((
        "llm.client.sub_store_ns_per_entry",
        ns_per_op(signatures.len(), || {
            client.clear_cache();
            for signature in &signatures {
                client.store_sub_entry(signature, "1234567");
            }
        }),
    ));
    raw.push((
        "llm.client.sub_hit_ns_per_entry",
        ns_per_op(signatures.len(), || {
            for signature in &signatures {
                let found = client.extract_sub_entry(signature);
                debug_assert!(matches!(found, SubEntryLookup::Hit(_)));
                black_box(found);
            }
        }),
    ));
    let universes = KeyUniverseStore::new();
    universes.publish(
        "city|name|",
        "probe",
        KeyUniverse {
            keys: prepared
                .scenario
                .world
                .cities
                .iter()
                .map(|c| c.name.clone())
                .collect(),
            iterations: 1,
            exhausted: true,
        },
    );
    raw.push((
        "llm.client.key_universe_read_ns",
        ns_per_op(1, || {
            black_box(universes.read("city|name|", "probe"));
        }),
    ));

    // --- the live simulator, on this workload's own prompts ------------
    let stride = prepared.recorded.len().div_ceil(SIMLLM_SAMPLE).max(1);
    let sample: Vec<&str> = prepared
        .recorded
        .iter()
        .step_by(stride)
        .map(|(p, _)| p.as_str())
        .collect();
    let simllm_ns = ns_per_op(sample.len(), || {
        for prompt in &sample {
            black_box(prepared.live.complete(black_box(prompt)));
        }
    });
    raw.push(("llm.simllm.complete_us_per_call", simllm_ns / 1e3));

    // --- lanes and the wave scheduler -----------------------------------
    let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ prepared.scenario.world.seed;
    let durations: Vec<u64> = (0..4096)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            1 + state % 200
        })
        .collect();
    raw.push((
        "llm.lanes.lane_schedule_ns_per_task",
        ns_per_op(durations.len(), || {
            for wave in durations.chunks(64) {
                black_box(lane_schedule(wave.iter().copied(), 8));
            }
        }),
    ));
    raw.push((
        "llm.lanes.event_clock_ns_per_task",
        ns_per_op(durations.len(), || {
            let mut clock = EventClock::new(8);
            let mut release = 0;
            for &duration in &durations {
                release = clock
                    .schedule(release, duration)
                    .saturating_sub(duration / 2);
            }
            black_box(clock.makespan());
        }),
    ));
    raw.push((
        "llm.lanes.lane_pool_ns_per_task",
        ns_per_op(durations.len(), || {
            let mut pool = LanePool::new(MULTI_SESSIONS * 8, MULTI_SESSIONS);
            let mut release = 0;
            for (i, &duration) in durations.iter().enumerate() {
                release = pool
                    .schedule(i % MULTI_SESSIONS, release, duration)
                    .saturating_sub(duration / 2);
            }
            black_box(pool.makespan());
        }),
    ));
    let scheduler = Scheduler::new(Parallelism::new(8));
    raw.push((
        "core.schedule.wave_ns_per_unit",
        ns_per_op(64, || {
            let units: Vec<_> = durations[..64]
                .iter()
                .map(|&d| move || black_box(d).wrapping_mul(31))
                .collect();
            black_box(scheduler.run_wave(units));
        }),
    ));

    // --- relational execution and the matcher on ground truth ----------
    let suite: Vec<String> = prepared.scenario.suite.iter().map(|q| q.to_sql()).collect();
    let mut rows = 0usize;
    let truth_ns = ns_per_op(suite.len(), || {
        rows = suite
            .iter()
            .filter_map(|sql| database.execute(sql).ok())
            .map(|r| r.len())
            .sum();
    });
    raw.push(("relational.truth_exec_us_per_query", truth_ns / 1e3));
    raw.push((
        "relational.rows_per_query",
        rows as f64 / suite.len() as f64,
    ));
    let truths: Vec<_> = suite
        .iter()
        .filter_map(|sql| database.execute(sql).ok())
        .collect();
    let started = Instant::now();
    for truth in &truths {
        black_box(match_records(truth, &relation_to_records(truth)));
    }
    raw.push((
        "eval.match_us_per_query",
        started.elapsed().as_nanos() as f64 / 1e3 / truths.len().max(1) as f64,
    ));

    // --- one multi-query replay on a fresh serving session -------------
    let serving = Spec::by_name("serving_cold").expect("a workload").options();
    let model: Arc<dyn LanguageModel> = Arc::new(SimLlm::new(
        prepared.scenario.knowledge.clone(),
        if spec.noisy {
            ModelProfile::chatgpt()
        } else {
            ModelProfile::oracle()
        },
    ));
    let session = Galois::with_options(model, database.clone(), serving);
    let refs: Vec<&str> = suite.iter().map(String::as_str).collect();
    let session_of: Vec<usize> = (0..refs.len()).map(|i| i % MULTI_SESSIONS).collect();
    let policy = AdmissionPolicy {
        max_inflight: MULTI_INFLIGHT,
        ..AdmissionPolicy::default()
    };
    let started = Instant::now();
    let report =
        run_multi_query(&session, &refs, &session_of, &policy).expect("the serving stack streams");
    raw.push((
        "core.multi.run_us_per_query",
        started.elapsed().as_nanos() as f64 / 1e3 / refs.len() as f64,
    ));
    raw.push(("core.multi.makespan_virtual_ms", report.makespan_ms as f64));
    raw.push(("core.multi.queue_virtual_ms", report.total_queue_ms as f64));
    raw
}

/// Names among the probe results that are times (and get normalised).
fn is_time(name: &str) -> bool {
    crate::metrics::PER_LAYER
        .iter()
        .any(|def| def.name == name && matches!(def.unit, "ns" | "us" | "ms" | "s"))
}

/// Outcome of a traced run.
pub struct Traced {
    pub report: Report,
    pub attempted: usize,
    pub failed: usize,
    pub spans: Vec<Span>,
}

/// The whole traced run of one workload.
pub fn run(spec: &Spec, seed: u64, scale: usize) -> Traced {
    let tracer = Arc::new(Tracer::new());
    let mut calibrator = Calibrator::new();
    let mut report = Report::default();

    // Set-up, bracketed so the dataset stages read in normalised time.
    let cal_before = calibrator.run();
    let mut prepared = prepare(spec, seed, scale, Some(&tracer));
    let setup_factor = norm_factor(cal_before, calibrator.run());
    report.set(
        "dataset.world_gen_s",
        prepared.dataset.world_gen_s * setup_factor,
    );
    report.set(
        "dataset.to_database_s",
        prepared.dataset.to_database_s * setup_factor,
    );
    report.set(
        "dataset.to_knowledge_s",
        prepared.dataset.to_knowledge_s * setup_factor,
    );
    report.set(
        "dataset.build_suite_s",
        prepared.dataset.build_suite_s * setup_factor,
    );
    let verdict = verify(spec, &prepared, panel(spec, seed, scale));
    let mut attempted = prepared.first.len() + prepared.warmup_attempted + verdict.panel_attempted;
    let mut failed = verdict.failed;

    // Untraced passes: the figure the traced ones are compared with.
    let untraced = measure(
        spec,
        &prepared,
        &verdict.pinned,
        &mut calibrator,
        UNTRACED_SECONDS,
        UNTRACED_PASSES,
    );
    attempted += untraced.attempted;
    failed += untraced.failed;
    let untraced_pass_ns = median(&untraced.pass_norm_ns);
    report.set(
        "harness.pass_wall_ms_p50",
        median(&untraced.pass_wall_ns) / 1e6,
    );
    report.set(
        "harness.calibration_ms_p50",
        median(&untraced.calibration_ns) / 1e6,
    );
    report.set("harness.norm_factor_iqr", iqr_share(&untraced.norm_factors));

    // Traced passes: each bracketed, so its spans normalise by its own
    // factor.
    let setup_timed = prepared
        .timed
        .clone()
        .expect("a traced set-up wraps its model");
    let statements = prepared.statements.len() as f64;
    let queries_traced = statements * f64::from(TRACED_PASSES);
    let (mut traced_total_ns, mut traced_stage_ns) = (Vec::new(), Vec::new());
    let mut factors = Vec::new();
    let mut wall_ns = 0.0;
    let mut cost = PassCost::default();
    let (mut hits, mut lookups) = (0, 0);
    let mut model = ModelCounters::default();
    let mut drop_ns = Vec::new();
    tracer.set_enabled(true);
    let mut cal_before = calibrator.run();
    for pass in 1..=TRACED_PASSES {
        let fresh = prepared.warm.is_none().then(|| {
            let timed = Arc::new(TimedModel::new(
                Arc::clone(&prepared.model),
                Arc::clone(&tracer),
            ));
            let session =
                prepared.fresh_session(spec, Arc::clone(&timed) as Arc<dyn LanguageModel>);
            (session, timed)
        });
        let (session, timed) = match (&fresh, &prepared.warm) {
            (Some((session, timed)), _) => (session, timed),
            (None, Some(warm)) => (warm, &setup_timed),
            (None, None) => unreachable!("a fresh session is built whenever none is warm"),
        };
        let (stats_before, counters_before) = (session.session_stats(), timed.counters());
        let run = traced_pass(session, timed, &tracer, &prepared.statements, pass);
        let (stats, counters) = (session.session_stats(), timed.counters());
        model.calls += counters.calls - counters_before.calls;
        model.busy_ns += counters.busy_ns - counters_before.busy_ns;
        model.prompt_bytes += counters.prompt_bytes - counters_before.prompt_bytes;
        hits += stats.cache_hits - stats_before.cache_hits;
        lookups +=
            (stats.cache_hits + stats.prompts) - (stats_before.cache_hits + stats_before.prompts);
        attempted += run.results.len();
        failed += run
            .results
            .iter()
            .zip(&verdict.pinned)
            .filter(|(r, &pin)| digest(r, spec.explain) != pin)
            .count();
        cost = PassCost::of(&run.results);
        if let Some(fresh) = fresh {
            let started = Instant::now();
            drop(fresh);
            drop_ns.push(started.elapsed().as_nanos() as f64);
        }
        let cal_after = calibrator.run();
        let factor = norm_factor(cal_before, cal_after);
        cal_before = cal_after;
        factors.push(factor);
        wall_ns += run.total_ns;
        traced_total_ns.push(run.total_ns * factor);
        traced_stage_ns.push(run.stages_ns * factor);
    }
    tracer.set_enabled(false);
    let spans = tracer.snapshot();
    let selfs = self_times(&spans);
    let execute_name = if spec.explain {
        "core.plan_choice.explain"
    } else {
        "core.session.execute"
    };
    let (mut execute_ns, mut execute_self_ns) = (0.0, 0.0);
    for (span, &self_ns) in spans
        .iter()
        .zip(&selfs)
        .filter(|(span, _)| span.name == execute_name)
    {
        let factor = factors[span.pass as usize - 1];
        execute_ns += (span.end_ns - span.start_ns) as f64 * factor;
        execute_self_ns += self_ns as f64 * factor;
    }
    report.set(
        "core.session.execute_us_per_query",
        execute_ns / 1e3 / queries_traced,
    );
    report.set(
        "core.session.self_us_per_query",
        execute_self_ns / 1e3 / queries_traced,
    );
    let per_query = |count: usize| count as f64 / statements;
    report.set(
        "core.session.rows_retrieved_per_query",
        per_query(cost.rows_retrieved),
    );
    report.set(
        "core.session.cache_hits_per_query",
        per_query(cost.cache_hits),
    );
    report.set("core.session.list_virtual_ms", cost.list_virtual_ms as f64);
    report.set(
        "core.session.filter_virtual_ms",
        cost.filter_virtual_ms as f64,
    );
    report.set(
        "core.session.fetch_virtual_ms",
        cost.fetch_virtual_ms as f64,
    );
    report.set("llm.client.hit_share", hits as f64 / lookups.max(1) as f64);
    report.set(
        "llm.simllm.calls_per_query",
        model.calls as f64 / queries_traced,
    );
    report.set(
        "llm.simllm.prompt_bytes_per_call",
        model.prompt_bytes as f64 / model.calls.max(1) as f64,
    );
    report.set(
        "llm.simllm.busy_share",
        model.busy_ns as f64 / wall_ns.max(1.0),
    );
    report.set(
        "trace.overhead_pct",
        100.0 * (median(&traced_total_ns) - untraced_pass_ns) / untraced_pass_ns,
    );
    report.set(
        "trace.coverage_pct",
        100.0 * median(&traced_stage_ns) / untraced_pass_ns,
    );
    cost.report(&mut report);
    report.set("cardinality_diff_pct", verdict.cardinality_diff_pct);

    // Probes, bracketed as one section.
    let corpus = Corpus::record(seed);
    let cal_before = calibrator.run();
    let mut raw = probes(spec, &prepared, &corpus);
    let session_new_ns = ns_per_op(1, || {
        black_box(prepared.fresh_session(spec, Arc::clone(&prepared.model)));
    });
    raw.push(("core.session.new_us", session_new_ns / 1e3));
    if let Some(warm) = prepared.warm.take() {
        let started = Instant::now();
        drop(warm);
        drop_ns.push(started.elapsed().as_nanos() as f64);
    }
    raw.push(("core.session.drop_ms", median(&drop_ns) / 1e6));
    let probe_factor = norm_factor(cal_before, calibrator.run());
    for (name, value) in raw {
        report.set(
            name,
            if is_time(name) {
                value * probe_factor
            } else {
                value
            },
        );
    }
    let replay_miss = prepared.replay.as_ref().map_or(0, |r| r.misses());
    report.set("harness.replay_miss", replay_miss as f64);
    failed += replay_miss as usize;

    Traced {
        report,
        attempted,
        failed,
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;

    #[test]
    fn traced_run_measures_every_per_layer_metric() {
        for name in ["paper_noisy", "frontend"] {
            let spec = Spec::by_name(name).unwrap();
            let traced = run(spec, 42, 1);
            assert_eq!(traced.failed, 0, "{name}");
            for def in PER_LAYER {
                let value = traced
                    .report
                    .get(def.name)
                    .unwrap_or_else(|| panic!("{name}: {} missing", def.name));
                assert!(value.is_finite(), "{name}: {} = {value}", def.name);
                if matches!(def.unit, "ns" | "us" | "ms" | "s") {
                    assert!(value > 0.0, "{name}: time {} reads {value}", def.name);
                }
            }
            // pass → query → stage (→ model call) spans, with parents.
            let stage = if spec.explain {
                "core.plan_choice.explain"
            } else {
                "core.session.execute"
            };
            let execute = traced.spans.iter().find(|s| s.name == stage).unwrap();
            let query = &traced.spans[execute.parent as usize - 1];
            assert_eq!(query.name, "query");
            assert_eq!(traced.spans[query.parent as usize - 1].name, "pass");
            let model_spans = traced
                .spans
                .iter()
                .filter(|s| s.name == "llm.simllm.complete")
                .count();
            assert_eq!(model_spans > 0, !spec.explain);
        }
    }

    #[test]
    fn traced_pass_reproduces_execute() {
        let spec = Spec::by_name("serving_cold").unwrap();
        let tracer = Arc::new(Tracer::new());
        let prepared = prepare(spec, 7, 1, Some(&tracer));
        let timed = Arc::new(TimedModel::new(
            Arc::clone(&prepared.model),
            Arc::clone(&tracer),
        ));
        let session = prepared.fresh_session(spec, Arc::clone(&timed) as Arc<dyn LanguageModel>);
        let staged = traced_pass(&session, &timed, &tracer, &prepared.statements, 1);
        let direct = crate::workload::run_pass(
            &prepared.fresh_session(spec, Arc::clone(&prepared.model)),
            &prepared.statements,
        );
        let digests = |results: &[Option<GaloisResult>]| {
            results.iter().map(|r| digest(r, false)).collect::<Vec<_>>()
        };
        assert_eq!(digests(&staged.results), digests(&direct));
        assert_eq!(PassCost::of(&staged.results), PassCost::of(&direct));
        assert!(staged.stages_ns <= staged.total_ns);
    }

    #[test]
    fn probe_corpus_covers_every_prompt_protocol() {
        let corpus = Corpus::record(42);
        let kinds = |exchanges: &[Exchange]| {
            let mut seen = std::collections::BTreeSet::new();
            for (prompt, _) in exchanges {
                seen.insert(match parse_task(prompt) {
                    Some(TaskIntent::ListKeys { .. } | TaskIntent::ListKeysPage { .. }) => "list",
                    Some(TaskIntent::FetchAttr { .. }) => "value",
                    Some(TaskIntent::CheckFilter { .. }) => "boolean",
                    Some(TaskIntent::FetchGridBatch { .. }) => "grid",
                    Some(_) => "batch",
                    None => "unparsed",
                });
            }
            seen
        };
        let single = kinds(&corpus.single);
        assert!(
            ["list", "value", "boolean"]
                .iter()
                .all(|k| single.contains(k)),
            "{single:?}"
        );
        assert!(kinds(&corpus.grid).contains("grid"));
    }
}
