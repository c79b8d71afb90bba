//! The five workloads: what each one builds in set-up, what one pass
//! executes, and the correctness gate every pass goes through.
//!
//! One harness thread drives the engine in a closed loop (one client;
//! the box has two cores). The engine's own `Parallelism(8)` worker
//! threads on the serving stack belong to the program, not to the load.

use std::sync::Arc;
use std::time::Instant;

use galois_bench::grid_stack_options;
use galois_core::{Galois, GaloisOptions, GaloisResult};
use galois_dataset::{
    build_operator_suite, build_suite, to_database, to_knowledge, Scenario, World, WorldConfig,
};
use galois_eval::{cardinality::average_diff, match_records, relation_to_records, MatchOutcome};
use galois_llm::{LanguageModel, ModelProfile, SimLlm};
use galois_relational::Relation;

use crate::calibrate::{norm_factor, Calibrator};
use crate::metrics::Report;
use crate::models::{Exchange, ReplayLlm, TimedModel};
use crate::stats::{percentile, sort};
use crate::trace::Tracer;

/// One workload's fixed configuration. Nothing here depends on the
/// commit under test: world scale and passes per block are constants,
/// and the number of passes is set by `--seconds` (of statement time)
/// alone.
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// `Scenario::generate_scaled(seed, scale)`; x40 ≈ 10⁴ keys.
    pub scale: usize,
    /// `ModelProfile::chatgpt()` instead of the noise-free oracle.
    pub noisy: bool,
    /// `grid_stack_options(8, 10, 6)` instead of `GaloisOptions::default()`.
    pub serving: bool,
    /// One session warmed in set-up serves every pass; otherwise each
    /// block builds a fresh session and drops it outside the timers.
    pub warm: bool,
    /// Passes are answered by a `ReplayLlm` recorded in set-up.
    pub replay: bool,
    /// Statements are `EXPLAIN` over the suite and the operator suite.
    pub explain: bool,
}

pub const SPECS: &[Spec] = &[
    Spec {
        name: "paper_cold",
        why: "paper-faithful default on a cold session: wave engine, one prompt per key, prompt render, client miss path, parse/clean, live SimLlm",
        scale: 20,
        noisy: false,
        serving: false,
        warm: false,
        replay: false,
        explain: false,
    },
    Spec {
        name: "paper_noisy",
        why: "Table 1/2 configuration (chatgpt profile): the only workload whose quality is not 100 %, where cleaning and fallback paths run and SimLlm does most of the work",
        scale: 10,
        noisy: true,
        serving: false,
        warm: false,
        replay: false,
        explain: false,
    },
    Spec {
        name: "serving_cold",
        why: "engine-only cold path over a replayed model: StreamSim, cost planner, grid split, sub-entry and key-universe writes, EventClock; model time is zero",
        scale: 20,
        noisy: false,
        serving: true,
        warm: false,
        replay: true,
        explain: false,
    },
    Spec {
        name: "serving_warm",
        why: "same stack on a warmed session: cache, sub-entry and key-universe reads plus relational execution, so a write-path gain that costs reads shows",
        scale: 40,
        noisy: false,
        serving: true,
        warm: true,
        replay: false,
        explain: false,
    },
    Spec {
        name: "frontend",
        why: "EXPLAIN over 64 statements on the warm serving session: lex/parse, bind/optimise, compile, cost-based plan choice and render do all the work, retrieval none",
        scale: 20,
        noisy: false,
        serving: true,
        warm: true,
        replay: false,
        explain: true,
    },
];

/// The world scale and pass count of `--quick` smoke runs.
pub const QUICK_SCALE: usize = 4;
pub const QUICK_PASSES: usize = 2;
/// The fewest passes a full run measures, however short `--seconds` is.
pub const MIN_PASSES: usize = 8;

impl Spec {
    pub fn by_name(name: &str) -> Option<&'static Spec> {
        SPECS.iter().find(|s| s.name == name)
    }

    pub fn profile(&self) -> ModelProfile {
        if self.noisy {
            ModelProfile::chatgpt()
        } else {
            ModelProfile::oracle()
        }
    }

    pub fn options(&self) -> GaloisOptions {
        if self.serving {
            grid_stack_options(8, 10, 6)
        } else {
            GaloisOptions::default()
        }
    }
}

/// Wall seconds of the four dataset stages behind one scenario.
#[derive(Debug, Clone, Copy, Default)]
pub struct DatasetTimes {
    pub world_gen_s: f64,
    pub to_database_s: f64,
    pub to_knowledge_s: f64,
    pub build_suite_s: f64,
}

/// `Scenario::generate_scaled`, stage by stage, so each is timed.
pub fn build_scenario(seed: u64, scale: usize) -> (Scenario, DatasetTimes) {
    let mut times = DatasetTimes::default();
    let timed = |slot: &mut f64, started: Instant| *slot = started.elapsed().as_secs_f64();
    let t = Instant::now();
    let world = World::generate_with(seed, WorldConfig::scaled(scale));
    timed(&mut times.world_gen_s, t);
    let t = Instant::now();
    let database = to_database(&world);
    timed(&mut times.to_database_s, t);
    let t = Instant::now();
    let knowledge = Arc::new(to_knowledge(&world));
    timed(&mut times.to_knowledge_s, t);
    let t = Instant::now();
    let suite = build_suite(&world);
    timed(&mut times.build_suite_s, t);
    let scenario = Scenario {
        world,
        database,
        knowledge,
        suite,
    };
    (scenario, times)
}

/// The statements of one pass and nothing else: what the program under
/// test receives from the generated world.
pub fn statements(spec: &Spec, scenario: &Scenario) -> Vec<String> {
    let suite = scenario.suite.iter().map(|q| q.to_sql());
    if spec.explain {
        suite
            .chain(
                build_operator_suite(&scenario.world)
                    .into_iter()
                    .map(|q| q.sql),
            )
            .map(|sql| format!("EXPLAIN {sql}"))
            .collect()
    } else {
        suite.collect()
    }
}

/// One untimed pass: every statement once. `None` marks a statement
/// the engine refused.
pub fn run_pass(session: &Galois, statements: &[String]) -> Vec<Option<GaloisResult>> {
    statements
        .iter()
        .map(|sql| session.execute(sql).ok())
        .collect()
}

/// Everything set-up leaves behind for the measured passes.
pub struct Prepared {
    pub scenario: Scenario,
    pub statements: Vec<String>,
    /// Ground truth per statement (`Database::execute` on the stored
    /// tables); empty for `EXPLAIN` statements, which have none.
    pub truth: Vec<Relation>,
    /// The live simulator over the scenario's knowledge.
    pub live: Arc<dyn LanguageModel>,
    /// The model measured passes talk to (`live`, or its recording).
    pub model: Arc<dyn LanguageModel>,
    pub replay: Option<Arc<ReplayLlm>>,
    /// The wrapper the first pass ran through, when one was needed.
    pub timed: Option<Arc<TimedModel>>,
    /// What the first pass asked and was answered (instrumented runs).
    pub recorded: Vec<Exchange>,
    pub warm: Option<Galois>,
    /// The first pass: verification on oracle workloads, the recording
    /// on `serving_cold`, the warm-up on the warm workloads.
    pub first: Vec<Option<GaloisResult>>,
    /// Statements of the un-timed warm-up that failed (`frontend` warms
    /// its session with the suite before the first `EXPLAIN` pass).
    pub warmup_failed: usize,
    pub warmup_attempted: usize,
    pub dataset: DatasetTimes,
}

impl Prepared {
    pub fn fresh_session(&self, spec: &Spec, model: Arc<dyn LanguageModel>) -> Galois {
        Galois::with_options(model, self.scenario.database.clone(), spec.options())
    }
}

/// Set-up: world, statements, ground truth, model, and the first pass.
/// With a `tracer` the first pass runs through a [`TimedModel`] that
/// keeps every exchange (the traced run replays them layer by layer).
pub fn prepare(spec: &Spec, seed: u64, scale: usize, tracer: Option<&Arc<Tracer>>) -> Prepared {
    let (scenario, dataset) = build_scenario(seed, scale);
    let statements = statements(spec, &scenario);
    let truth: Vec<Relation> = if spec.explain {
        Vec::new()
    } else {
        statements
            .iter()
            .map(|sql| {
                scenario
                    .database
                    .execute(sql)
                    .expect("suite statements execute on the stored tables")
            })
            .collect()
    };
    let live: Arc<dyn LanguageModel> =
        Arc::new(SimLlm::new(scenario.knowledge.clone(), spec.profile()));
    let timed = (tracer.is_some() || spec.replay).then(|| {
        let tracer = tracer.cloned().unwrap_or_else(|| Arc::new(Tracer::new()));
        let timed = Arc::new(TimedModel::new(Arc::clone(&live), tracer));
        timed.keep_text(true);
        timed
    });
    let first_model: Arc<dyn LanguageModel> = match &timed {
        Some(timed) => Arc::clone(timed) as Arc<dyn LanguageModel>,
        None => Arc::clone(&live),
    };
    let session = Galois::with_options(first_model, scenario.database.clone(), spec.options());
    let (mut warmup_failed, mut warmup_attempted) = (0, 0);
    if spec.explain {
        for query in &scenario.suite {
            warmup_attempted += 1;
            warmup_failed += usize::from(session.execute(&query.to_sql()).is_err());
        }
    }
    let first = run_pass(&session, &statements);
    let recorded = timed
        .as_ref()
        .map(|timed| {
            timed.keep_text(false);
            timed.take_log()
        })
        .unwrap_or_default();
    let (model, replay, recorded) = if spec.replay {
        // The traced run replays the exchanges too; an untraced run
        // hands them to the replay model without a copy.
        let kept = if tracer.is_some() {
            recorded.clone()
        } else {
            Vec::new()
        };
        let replay = Arc::new(ReplayLlm::new(recorded, Arc::clone(&live)));
        (
            Arc::clone(&replay) as Arc<dyn LanguageModel>,
            Some(replay),
            kept,
        )
    } else {
        (Arc::clone(&live), None, recorded)
    };
    Prepared {
        scenario,
        statements,
        truth,
        live,
        model,
        replay,
        timed,
        recorded,
        warm: spec.warm.then_some(session),
        first,
        warmup_failed,
        warmup_attempted,
        dataset,
    }
}

/// FNV-1a digest of a result's rendered cells, cheap enough to run on
/// every statement of every pass. Rows combine commutatively — SQL
/// without `ORDER BY` promises a multiset, and the cost-based planner
/// does reorder a join once its concepts are warm — unless `ordered`,
/// which folds each row's position in (plan text is a sequence).
pub fn digest(result: &Option<GaloisResult>, ordered: bool) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let fnv = |seed: u64, bytes: &[u8]| {
        bytes.iter().fold(seed, |hash, &byte| {
            (hash ^ u64::from(byte)).wrapping_mul(PRIME)
        })
    };
    let Some(result) = result else {
        return fnv(OFFSET, b"<error>");
    };
    let rows = &result.relation.rows;
    rows.iter().enumerate().fold(
        fnv(OFFSET, &rows.len().to_le_bytes()),
        |sum, (index, row)| {
            let position = if ordered { index as u64 } else { 0 };
            let row_hash = row
                .iter()
                .fold(fnv(OFFSET, &position.to_le_bytes()), |hash, cell| {
                    fnv(fnv(hash, cell.render().as_bytes()), &[0x1f])
                });
            sum.wrapping_add(row_hash)
        },
    )
}

fn sorted_records(relation: &Relation) -> Vec<Vec<String>> {
    let mut rows = relation_to_records(relation);
    rows.sort_unstable();
    rows
}

/// Table 2's matcher. Rows that are the same multiset of rendered
/// values match cell for cell, which spares the quadratic tuple mapping
/// on the 10⁴-row relations of a noise-free run; anything else goes
/// through `galois_eval::match_records`.
pub fn match_against(truth: &Relation, got: &Relation) -> MatchOutcome {
    let cells = truth.len() * truth.schema.arity();
    if sorted_records(truth) == sorted_records(got) {
        return MatchOutcome {
            matched_cells: cells,
            truth_cells: cells,
            candidate_cells: cells,
        };
    }
    match_records(truth, &relation_to_records(got))
}

/// Worlds behind the quality figures of a noisy workload: the run's own
/// and seven more of seeds derived from it. How much the chatgpt profile
/// knows of one x10 world moves with the seed (44 – 54 % cell match over
/// ten seeds, quartiles 9.6 % of the median apart), and the driver accepts
/// a bound only above that spread; the mean over eight worlds spreads a
/// third as far (2.9 and 4.3 % in two rounds), so the bound can be 13 %
/// and not the 25 % cap. Under one seed the figure is exact either way.
pub const QUALITY_PANEL: u64 = 8;

/// What the panel's other worlds scored, statement by statement.
#[derive(Default)]
pub struct Panel {
    scores: Vec<f64>,
    sizes: Vec<(usize, usize)>,
    failed: usize,
    attempted: usize,
}

/// Sets up and runs the panel's other worlds, one at a time, outside
/// every timer — and before the run's own set-up, so that their memory
/// is free again when `peak_rss_mb` starts to count. Empty unless the
/// model is noisy: a noise-free model scores 100 on every world.
pub fn panel(spec: &Spec, seed: u64, scale: usize) -> Panel {
    let mut panel = Panel::default();
    if spec.noisy {
        for member in 1..QUALITY_PANEL {
            let other = prepare(spec, panel_seed(seed, member), scale, None);
            panel.failed += score_first_pass(spec, &other, &mut panel.scores, &mut panel.sizes);
            panel.attempted += other.first.len();
        }
    }
    panel
}

/// Seed of the `member`-th panel world (splitmix64 of seed and member,
/// so the panels of neighbouring run seeds share no world).
fn panel_seed(seed: u64, member: u64) -> u64 {
    let mut z = seed
        .wrapping_add(member.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The verdict on the first pass, and the digests later passes are
/// pinned to.
pub struct Verdict {
    pub pinned: Vec<u64>,
    /// First-pass statements that errored or, on a noise-free model,
    /// missed ground truth (those of the panel's other worlds included).
    pub failed: usize,
    /// Statements the panel's other worlds ran, beyond `Prepared::first`.
    pub panel_attempted: usize,
    pub cell_match_pct: f64,
    pub cardinality_diff_pct: f64,
}

/// Scores one world's first pass against its ground truth, statement
/// by statement, and returns how many statements failed.
fn score_first_pass(
    spec: &Spec,
    prepared: &Prepared,
    scores: &mut Vec<f64>,
    sizes: &mut Vec<(usize, usize)>,
) -> usize {
    let mut failed = 0;
    for (truth, result) in prepared.truth.iter().zip(&prepared.first) {
        let empty = Relation::empty(truth.schema.clone());
        let got = result.as_ref().map_or(&empty, |r| &r.relation);
        let outcome = match_against(truth, got);
        let exact = outcome.matched_cells == outcome.truth_cells && got.len() == truth.len();
        failed += usize::from(result.is_none() || (!spec.noisy && !exact));
        scores.push(outcome.score());
        sizes.push((truth.len(), got.len()));
    }
    failed
}

/// Checks the first pass against ground truth (outside every timer)
/// and folds the panel's scores into the quality figures.
pub fn verify(spec: &Spec, prepared: &Prepared, panel: Panel) -> Verdict {
    let pinned: Vec<u64> = prepared
        .first
        .iter()
        .map(|r| digest(r, spec.explain))
        .collect();
    let errored = prepared.first.iter().filter(|r| r.is_none()).count();
    if spec.explain {
        // Plan text has no ground truth; the pinned digests are its
        // gate, and the quality figures are the constants of "nothing
        // retrieved, nothing wrong".
        return Verdict {
            pinned,
            failed: errored + prepared.warmup_failed,
            panel_attempted: 0,
            cell_match_pct: 100.0,
            cardinality_diff_pct: 0.0,
        };
    }
    let Panel {
        mut scores,
        mut sizes,
        failed,
        attempted: panel_attempted,
    } = panel;
    let failed = failed + score_first_pass(spec, prepared, &mut scores, &mut sizes);
    Verdict {
        pinned,
        failed,
        panel_attempted,
        cell_match_pct: 100.0 * scores.iter().sum::<f64>() / scores.len().max(1) as f64,
        cardinality_diff_pct: average_diff(&sizes).0,
    }
}

/// Prompt, token and simulated-clock totals of one pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassCost {
    pub prompts: usize,
    pub tokens: usize,
    pub cache_hits: usize,
    pub rows_retrieved: usize,
    pub list_virtual_ms: u64,
    pub filter_virtual_ms: u64,
    pub fetch_virtual_ms: u64,
    /// Simulated model-clock milliseconds per statement.
    pub virtual_ms: Vec<f64>,
}

impl PassCost {
    pub fn of(results: &[Option<GaloisResult>]) -> PassCost {
        let mut cost = PassCost::default();
        for stats in results
            .iter()
            .map(|r| r.as_ref().map(|r| r.stats).unwrap_or_default())
        {
            cost.prompts += stats.total_prompts();
            cost.tokens += stats.prompt_tokens + stats.completion_tokens;
            cost.cache_hits += stats.cache_hits;
            cost.rows_retrieved += stats.rows_retrieved;
            cost.list_virtual_ms += stats.list_virtual_ms;
            cost.filter_virtual_ms += stats.filter_virtual_ms;
            cost.fetch_virtual_ms += stats.fetch_virtual_ms;
            cost.virtual_ms.push(stats.virtual_ms as f64);
        }
        cost
    }

    /// The exact bill-and-clock figures every run prints, traced or not.
    pub fn report(&self, report: &mut Report) {
        let statements = self.virtual_ms.len() as f64;
        let mut virtual_ms = self.virtual_ms.clone();
        sort(&mut virtual_ms);
        report.set(
            "model_virtual_ms_per_query",
            virtual_ms.iter().sum::<f64>() / statements,
        );
        report.set("query_virtual_ms_p95", percentile(&virtual_ms, 95.0));
        report.set("prompts_per_query", self.prompts as f64 / statements);
        report.set("tokens_per_query", self.tokens as f64 / statements);
    }
}

/// What the measured section produced.
#[derive(Default)]
pub struct Measured {
    /// Normalised nanoseconds per pass.
    pub pass_norm_ns: Vec<f64>,
    /// Raw statement time per pass; its sum is what `--seconds` counts.
    pub pass_wall_ns: Vec<f64>,
    /// Wall length of the whole section, kernel runs and checks included.
    pub section_s: f64,
    /// Normalised microseconds per statement, over all passes.
    pub latency_norm_us: Vec<f64>,
    pub calibration_ns: Vec<f64>,
    pub norm_factors: Vec<f64>,
    pub attempted: usize,
    /// Statements that errored or whose digest left the pinned one.
    pub failed: usize,
    /// Cost of the first measured pass (every pass costs the same).
    pub cost: PassCost,
}

/// Statement time between two calibration runs. The kernel samples the
/// box for 100 ms; a pass is judged by the samples taken *during* it,
/// not only around it, because the box's speed moves within a second
/// (quiet box, same seed, twelve runs each: the spread of
/// `queries_per_s` between runs was 6.4 % with one bracket per run,
/// 4.1 % with a sample every 400 ms, 2.7 % every 200 ms and 1.4 % every
/// 100 ms). 200 ms it is: the section lasts half as long again as the
/// statement time it measures, not twice, which is what lets a run
/// measure 10 s of statements inside the driver's budget, and in the
/// box's noisy phases (README, "Noise evidence") every cadence is
/// equally far off.
pub const CHUNK_NS: f64 = 200e6;

/// The measured section: whole passes until `seconds` of statement time
/// (the sum of the statement timers; the kernel's share of the section
/// does not count) and `min_passes` are done. A calibration run closes
/// every chunk of [`CHUNK_NS`] of statement time and the statements of
/// the chunk are normalised by the two runs around it. Digest checks,
/// session builds and session drops sit between the statement timers.
pub fn measure(
    spec: &Spec,
    prepared: &Prepared,
    pinned: &[u64],
    calibrator: &mut Calibrator,
    seconds: f64,
    min_passes: usize,
) -> Measured {
    let per_pass = prepared.statements.len();
    let mut measured = Measured::default();
    let mut raw_ns: Vec<f64> = Vec::new();
    let started = Instant::now();
    let mut cal_before = calibrator.run();
    measured.calibration_ns.push(cal_before);
    let (mut open_ns, mut statement_ns) = (0.0, 0.0);
    let mut close_chunk = |measured: &mut Measured, raw_ns: &[f64], open_ns: &mut f64| {
        let cal_after = calibrator.run();
        let factor = norm_factor(cal_before, cal_after);
        measured.calibration_ns.push(cal_after);
        measured.norm_factors.push(factor);
        let closed = measured.latency_norm_us.len();
        measured
            .latency_norm_us
            .extend(raw_ns[closed..].iter().map(|ns| ns * factor / 1e3));
        cal_before = cal_after;
        *open_ns = 0.0;
    };
    while measured.pass_wall_ns.len() < min_passes || statement_ns < seconds * 1e9 {
        let fresh = (!spec.warm).then(|| prepared.fresh_session(spec, Arc::clone(&prepared.model)));
        let session = fresh
            .as_ref()
            .or(prepared.warm.as_ref())
            .expect("a session either way");
        let mut results = Vec::with_capacity(per_pass);
        for sql in &prepared.statements {
            let statement_started = Instant::now();
            let result = session.execute(sql);
            let ns = statement_started.elapsed().as_nanos() as f64;
            results.push(result.ok());
            raw_ns.push(ns);
            open_ns += ns;
            statement_ns += ns;
            if open_ns >= CHUNK_NS {
                close_chunk(&mut measured, &raw_ns, &mut open_ns);
            }
        }
        measured.attempted += per_pass;
        measured.failed += results
            .iter()
            .zip(pinned)
            .filter(|(result, &pin)| digest(result, spec.explain) != pin)
            .count();
        if measured.pass_wall_ns.is_empty() {
            measured.cost = PassCost::of(&results);
        }
        measured
            .pass_wall_ns
            .push(raw_ns[raw_ns.len() - per_pass..].iter().sum());
    }
    if open_ns > 0.0 {
        close_chunk(&mut measured, &raw_ns, &mut open_ns);
    }
    measured.section_s = started.elapsed().as_secs_f64();
    measured.pass_norm_ns = measured
        .latency_norm_us
        .chunks(per_pass)
        .map(|pass| pass.iter().sum::<f64>() * 1e3)
        .collect();
    measured
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prepared(name: &str, seed: u64) -> (&'static Spec, Prepared) {
        let spec = Spec::by_name(name).unwrap();
        (spec, prepare(spec, seed, 1, None))
    }

    #[test]
    fn same_seed_gives_identical_sql_and_deterministic_metrics() {
        for name in ["paper_noisy", "serving_cold", "frontend"] {
            let (spec, a) = prepared(name, 7);
            let (_, b) = prepared(name, 7);
            assert_eq!(a.statements, b.statements, "{name}");
            let va = verify(spec, &a, panel(spec, 7, 1));
            let vb = verify(spec, &b, panel(spec, 7, 1));
            assert_eq!(va.pinned, vb.pinned, "{name}");
            assert_eq!(va.cell_match_pct, vb.cell_match_pct);
            assert_eq!(va.cardinality_diff_pct, vb.cardinality_diff_pct);
            assert_eq!(PassCost::of(&a.first), PassCost::of(&b.first), "{name}");
            let (_, other) = prepared(name, 8);
            assert_ne!(
                a.statements, other.statements,
                "{name}: the seed reaches the SQL"
            );
        }
    }

    #[test]
    fn oracle_first_pass_is_ground_truth_and_replay_never_misses() {
        let (spec, prepared) = prepared("serving_cold", 42);
        let verdict = verify(spec, &prepared, panel(spec, 42, 1));
        assert_eq!((verdict.failed, verdict.cell_match_pct), (0, 100.0));
        assert_eq!(verdict.cardinality_diff_pct, 0.0);
        let mut calibrator = Calibrator::new();
        let measured = measure(spec, &prepared, &verdict.pinned, &mut calibrator, 0.0, 2);
        assert_eq!((measured.pass_norm_ns.len(), measured.failed), (2, 0));
        assert_eq!(measured.attempted, 2 * 46);
        assert_eq!(measured.latency_norm_us.len(), 2 * 46);
        assert_eq!(
            measured.calibration_ns.len(),
            measured.norm_factors.len() + 1
        );
        let by_statement: f64 = measured.latency_norm_us.iter().sum::<f64>() * 1e3;
        let by_pass: f64 = measured.pass_norm_ns.iter().sum();
        assert!((by_statement - by_pass).abs() <= 1e-6 * by_pass);
        assert_eq!(prepared.replay.as_ref().unwrap().misses(), 0);
        // The replayed cold pass bills exactly what the recorded one did.
        assert_eq!(measured.cost, PassCost::of(&prepared.first));
        assert!(measured.cost.prompts > 0);
    }

    #[test]
    fn noisy_quality_is_partial_and_a_changed_row_fails_the_gate() {
        let (spec, prepared) = prepared("paper_noisy", 42);
        let verdict = verify(spec, &prepared, panel(spec, 42, 1));
        assert_eq!(verdict.panel_attempted, 7 * 46, "seven more worlds");
        let alone = verify(spec, &prepared, Panel::default());
        assert_ne!(verdict.cell_match_pct, alone.cell_match_pct);
        let oracle = Spec::by_name("paper_cold").unwrap();
        assert_eq!(panel(oracle, 42, 1).attempted, 0);
        // The panels of neighbouring run seeds share no world.
        let worlds = |seed| (1..QUALITY_PANEL).map(move |m| panel_seed(seed, m));
        assert!(worlds(42).all(|w| w != 43 && worlds(43).all(|v| v != w)));
        assert_eq!(verdict.failed, 0, "a noisy model is wrong, not failing");
        assert!(verdict.cell_match_pct > 20.0 && verdict.cell_match_pct < 99.0);
        assert!(verdict.cardinality_diff_pct != 0.0);
        let mut tampered = verdict.pinned.clone();
        tampered[3] ^= 1;
        let mut calibrator = Calibrator::new();
        let measured = measure(spec, &prepared, &tampered, &mut calibrator, 0.0, 1);
        assert_eq!(measured.failed, 1);
    }

    #[test]
    fn matcher_fast_path_agrees_with_match_records() {
        let (_, prepared) = prepared("paper_cold", 42);
        for (truth, result) in prepared.truth.iter().zip(&prepared.first) {
            let got = &result.as_ref().unwrap().relation;
            let slow = match_records(truth, &relation_to_records(got));
            assert_eq!(match_against(truth, got), slow);
        }
        let first = &prepared.first[1];
        assert_ne!(digest(first, false), digest(&None, false));
        // Reordered rows: the same multiset, a different sequence.
        let mut reversed = first.clone();
        reversed.as_mut().unwrap().relation.rows.reverse();
        assert!(first.as_ref().unwrap().relation.len() > 1);
        assert_eq!(digest(first, false), digest(&reversed, false));
        assert_ne!(digest(first, true), digest(&reversed, true));
        // A changed cell: a different multiset.
        reversed.as_mut().unwrap().relation.rows[0][0] = galois_relational::Value::Null;
        assert_ne!(digest(first, false), digest(&reversed, false));
    }

    #[test]
    fn frontend_runs_explain_over_both_suites() {
        let (spec, prepared) = prepared("frontend", 42);
        assert_eq!(prepared.statements.len(), 46 + 18);
        assert!(prepared
            .statements
            .iter()
            .all(|s| s.starts_with("EXPLAIN ")));
        assert_eq!(prepared.warmup_attempted, 46);
        let verdict = verify(spec, &prepared, panel(spec, 42, 1));
        assert_eq!(verdict.failed, 0);
        assert_eq!(PassCost::of(&prepared.first).prompts, 0);
    }
}
