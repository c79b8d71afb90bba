//! # galois-bench
//!
//! Reproduction harness: one binary per table/figure of the paper (see
//! ARCHITECTURE.md's "Crate ↔ paper map" for which crate reproduces which
//! section) plus Criterion microbenchmarks in `benches/`.
//!
//! | binary | artifact |
//! |---|---|
//! | `table1` | Table 1 — cardinality difference per model |
//! | `table2` | Table 2 — cell-match % per method and query class |
//! | `timing` | §5 prompt-count / latency statistics |
//! | `plan_demo` | Figure 3 — compiled plan with LLM operators |
//! | `prompt_demo` | Figure 4 — few-shot prompt rendering |
//! | `ablation_pushdown` | §6 — prompt pushdown on/off |
//! | `ablation_cleaning` | §4 — cleaning on/off |
//! | `ablation_iteration` | §4 — "more results" iteration cap sweep |
//! | `ablation_planner` | §6 — cost-based planner vs. fixed heuristic |
//! | `ablation_batch` | multi-key prompt batching factor sweep (B ∈ {1, 2, 5, 10, 25}) |
//! | `ablation_grid` | grid fusion factor sweep (keys × attributes per prompt) |
//! | `ablation_limit` | LIMIT-aware early termination — window size sweep on a 120-key concept |
//! | `load_gen` | closed-loop multi-session load sweep over the shared lane pool |
//! | `perf_report` | end-to-end accounting (`BENCH_e2e.json`), incl. the planner and batched rows |
//!
//! Every binary but `prompt_demo` accepts `--seed <u64>` (default 42);
//! each declares the flags it reads through [`Flags`], which refuses the
//! rest. The suite-setup boilerplate the binaries share — flag parsing,
//! the engine option stacks each BENCH row names, fresh-session
//! construction — lives here so a configuration is defined once and every
//! ablation, the load generator and `perf_report` measure the same stack;
//! [`ledger`] builds and checks the `BENCH_e2e.json` rows.

#![warn(missing_docs)]

pub mod ledger;

use std::str::FromStr;
use std::sync::Arc;

use galois_core::{Galois, GaloisOptions, Parallelism, Pipeline, Planner, PromptBatch};
use galois_dataset::Scenario;
use galois_llm::{FaultProfile, ModelProfile, SimLlm};

/// A bin's command line: `<flag> <value>` pairs over the flags the bin
/// declared. An undeclared flag, a flag given twice, a flag without a
/// value and a value that does not parse are errors naming the offender,
/// never a silent default.
#[derive(Debug)]
pub struct Flags {
    declared: &'static [&'static str],
    pairs: Vec<(String, String)>,
}

impl Flags {
    /// Reads `args` (the command line after the program name) against the
    /// flags a bin accepts.
    pub fn parse(
        declared: &'static [&'static str],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Flags, String> {
        let mut args = args.into_iter();
        let mut pairs = Vec::new();
        while let Some(flag) = args.next() {
            if !declared.contains(&flag.as_str()) {
                let accepted = match declared {
                    [] => "this binary takes no arguments".to_string(),
                    _ => format!("accepted: {}", declared.join(" ")),
                };
                return Err(format!("unknown flag {flag} ({accepted})"));
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            if let Some((_, first)) = pairs.iter().find(|(given, _)| *given == flag) {
                return Err(format!("{flag} given twice ({first}, then {value})"));
            }
            pairs.push((flag, value));
        }
        Ok(Flags { declared, pairs })
    }

    /// [`Flags::parse`] over the process's arguments; an error is printed
    /// and the process exits with status 2.
    pub fn from_env(declared: &'static [&'static str]) -> Flags {
        Flags::parse(declared, std::env::args().skip(1)).unwrap_or_else(|e| exit_usage(&e))
    }

    /// The value given for `flag`, if any; `Err` when it does not parse as
    /// a `T`.
    pub fn value<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        assert!(self.declared.contains(&flag), "{flag} was not declared");
        match self.pairs.iter().find(|(given, _)| given == flag) {
            None => Ok(None),
            Some((_, text)) => text
                .parse()
                .map(Some)
                .map_err(|_| format!("{flag}: {text:?} is not a {}", std::any::type_name::<T>())),
        }
    }

    /// The value given for `flag`, or `default`; a malformed value is
    /// printed and the process exits with status 2.
    pub fn get<T: FromStr>(&self, flag: &str, default: T) -> T {
        self.value(flag)
            .unwrap_or_else(|e| exit_usage(&e))
            .unwrap_or(default)
    }

    /// `--seed N`, the world seed; 42 by default.
    pub fn seed(&self) -> u64 {
        self.get("--seed", 42)
    }

    /// `--parallelism K`, request lanes per session; 8 — the BENCH
    /// configuration — by default.
    pub fn lanes(&self) -> usize {
        self.get("--parallelism", 8).max(1)
    }

    /// `--model NAME` as a [`ModelProfile`] (`oracle` or one of the
    /// paper's four); the profile named `default` when absent.
    pub fn model(&self, default: &str) -> ModelProfile {
        let name = self.get("--model", default.to_string());
        ModelProfile::by_name(&name).unwrap_or_else(|| {
            exit_usage(&format!(
                "--model: unknown model {name} (oracle, flan, tk, gpt3, chatgpt)"
            ))
        })
    }
}

fn exit_usage(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

/// The cost-planned stack: `Planner::CostBased` over `lanes` request
/// lanes (the `galois_cost_planner` BENCH row).
pub fn cost_planned_options(lanes: usize) -> GaloisOptions {
    GaloisOptions {
        parallelism: Parallelism::new(lanes),
        planner: Planner::CostBased,
        ..Default::default()
    }
}

/// The batched stack: cost-planned plus `PromptBatch::Keys(batch)` (the
/// `galois_batched` BENCH row).
pub fn batched_options(lanes: usize, batch: usize) -> GaloisOptions {
    GaloisOptions {
        prompt_batch: PromptBatch::Keys(batch.max(1)),
        ..cost_planned_options(lanes)
    }
}

/// The pipelined stack: batched plus `Pipeline::Streaming` (the
/// `galois_pipelined` BENCH row).
pub fn pipelined_options(lanes: usize, batch: usize) -> GaloisOptions {
    GaloisOptions {
        pipeline: Pipeline::Streaming,
        ..batched_options(lanes, batch)
    }
}

/// The full grid-fused stack — [`GaloisOptions::serving`] (streaming,
/// cost-planned, key-universe store on) at `lanes` request lanes and
/// `PromptBatch::Grid { keys, attrs }`: the `galois_grid_fused` BENCH row
/// and the base configuration of the multi-query rows.
/// `grid_stack_options(8, 10, 6)` is the serving preset itself.
pub fn grid_stack_options(lanes: usize, keys: usize, attrs: usize) -> GaloisOptions {
    GaloisOptions {
        parallelism: Parallelism::new(lanes),
        prompt_batch: PromptBatch::Grid {
            keys: keys.max(1),
            attrs: attrs.max(1),
        },
        ..GaloisOptions::serving()
    }
}

/// A fresh Galois session over the scenario's knowledge under `profile`
/// and `options` — the construction every bin repeats for cold-session
/// measurements.
pub fn fresh_session(
    scenario: &Scenario,
    profile: &ModelProfile,
    options: GaloisOptions,
) -> Galois {
    Galois::with_options(
        Arc::new(SimLlm::new(scenario.knowledge.clone(), profile.clone())),
        scenario.database.clone(),
        options,
    )
}

/// A fault profile whose every fault is marker-detectable (truncated
/// answers excluded): the retry loop catches them all, keeping
/// resilience sweeps' row counts meaningful across policies.
pub fn detectable_fault_profile(rate: f64) -> FaultProfile {
    FaultProfile {
        fault_rate: rate,
        truncated_weight: 0,
        ..FaultProfile::default()
    }
}

#[cfg(test)]
mod tests {
    use super::Flags;

    fn parse(declared: &'static [&'static str], args: &[&str]) -> Result<Flags, String> {
        Flags::parse(declared, args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn absent_flags_take_the_bench_defaults() {
        let flags = parse(&["--seed", "--parallelism", "--model"], &[]).unwrap();
        assert_eq!(flags.seed(), 42);
        assert_eq!(flags.lanes(), 8);
        assert_eq!(flags.model("oracle").name, "oracle");
        assert_eq!(flags.model("chatgpt").name, "chatgpt");
        assert_eq!(flags.value::<String>("--model"), Ok(None));
    }

    #[test]
    fn given_flags_are_read_typed() {
        let args = ["--seed", "7", "--parallelism", "0", "--model", "GPT3"];
        let flags = parse(&["--seed", "--parallelism", "--model"], &args).unwrap();
        assert_eq!(flags.seed(), 7);
        assert_eq!(flags.lanes(), 1, "a session has at least one lane");
        assert_eq!(flags.model("oracle").name, "gpt3");
    }

    #[test]
    fn an_unknown_flag_is_an_error_that_names_it() {
        // What `table1 --threads 8` meets now that the flag is gone.
        let err = parse(&["--seed"], &["--threads", "8"]).unwrap_err();
        assert!(err.contains("--threads") && err.contains("--seed"), "{err}");
        let err = parse(&[], &["--seed", "1"]).unwrap_err();
        assert!(
            err.contains("--seed") && err.contains("no arguments"),
            "{err}"
        );
        let err = parse(&["--seed"], &["--seed"]).unwrap_err();
        assert!(err.contains("--seed needs a value"), "{err}");
    }

    #[test]
    fn a_repeated_flag_is_an_error_not_the_first_value() {
        // `--seed 1 --seed 2` used to run seed 1 without a word.
        let err = parse(&["--seed", "--model"], &["--seed", "1", "--seed", "2"]).unwrap_err();
        assert!(
            err.contains("--seed given twice") && err.contains('1') && err.contains('2'),
            "{err}"
        );
        // Equal values are still two statements of one decision.
        assert!(parse(&["--seed"], &["--seed", "7", "--seed", "7"]).is_err());
        let flags = parse(&["--seed", "--model"], &["--seed", "1", "--model", "tk"]).unwrap();
        assert_eq!(flags.seed(), 1);
    }

    #[test]
    fn a_malformed_value_is_an_error_not_the_default() {
        let flags = parse(&["--parallelism", "--seed"], &["--parallelism", "eight"]).unwrap();
        let err = flags.value::<usize>("--parallelism").unwrap_err();
        assert!(
            err.contains("--parallelism") && err.contains("eight"),
            "{err}"
        );
        assert_eq!(flags.value::<u64>("--seed"), Ok(None));
        let flags = parse(&["--seed"], &["--seed", "-1"]).unwrap();
        assert!(flags.value::<u64>("--seed").is_err());
    }

    #[test]
    #[should_panic(expected = "--batch was not declared")]
    fn reading_an_undeclared_flag_is_a_bug_in_the_bin() {
        let _ = parse(&["--seed"], &[]).unwrap().value::<usize>("--batch");
    }

    #[test]
    fn option_stacks_compose_incrementally() {
        use galois_core::{GaloisOptions, ListStore, Pipeline, Planner, PromptBatch};
        let cost = super::cost_planned_options(8);
        assert_eq!(cost.planner, Planner::CostBased);
        assert_eq!(cost.parallelism.get(), 8);
        assert_eq!(cost.pipeline, Pipeline::Off);
        let batched = super::batched_options(8, 10);
        assert_eq!(batched.prompt_batch, PromptBatch::Keys(10));
        assert_eq!(batched.pipeline, Pipeline::Off);
        let pipelined = super::pipelined_options(8, 10);
        assert_eq!(pipelined.prompt_batch, PromptBatch::Keys(10));
        assert_eq!(pipelined.pipeline, Pipeline::Streaming);
        let grid = super::grid_stack_options(8, 10, 6);
        assert_eq!(grid.prompt_batch, PromptBatch::Grid { keys: 10, attrs: 6 });
        assert_eq!(grid.pipeline, Pipeline::Streaming);
        assert_eq!(grid.list_store, ListStore::On);
        assert_eq!(grid.planner, Planner::CostBased);
        // The stack the benchmark serves is the library's preset, and
        // every stack is the one below it plus its own knob.
        assert_eq!(grid, GaloisOptions::serving());
        assert_eq!(
            GaloisOptions {
                list_store: ListStore::Off,
                prompt_batch: pipelined.prompt_batch,
                ..grid
            },
            pipelined
        );
    }

    #[test]
    fn detectable_fault_profile_excludes_truncation() {
        let p = super::detectable_fault_profile(0.2);
        assert_eq!(p.fault_rate, 0.2);
        assert_eq!(p.truncated_weight, 0);
    }
}
