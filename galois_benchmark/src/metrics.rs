//! The metric registry: every name the benchmark may print, with its
//! unit, direction and (for end-to-end metrics) regression bound. The
//! registry is the single source `BENCHMARK.json` is checked against.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// An end-to-end metric with the share of the parent's median by which
/// it may worsen before a change counts as a regression.
pub struct Bounded {
    pub def: MetricDef,
    pub bound: f64,
    /// An exact function of the seed, not a measurement: `--agree`, which
    /// compares two sets of one seed, demands identity. The bound is for
    /// the driver alone, which also accepts the benchmark on the spread
    /// between seeds.
    pub exact: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// End-to-end metrics every workload reports in its result line. Timings
/// are in normalised units (see `calibrate`). None of them is ever zero:
/// a bound is a share of the parent's median. The timings sit at the
/// contract's cap: three times the spread between ten runs of a quiet
/// box would allow 12 – 25 %, but in the box's noisy phases ten runs of
/// one seed have spread 18 % on `serving_cold` (README, "Noise
/// evidence"), and the driver refuses a benchmark whose spread passes
/// its bound. The other two are three times their spread.
pub const END_TO_END: &[Bounded] = &[
    Bounded {
        def: lower("setup_s", "s"),
        bound: 0.25,
        exact: false,
    },
    Bounded {
        def: higher("queries_per_s", "1/s"),
        bound: 0.25,
        exact: false,
    },
    Bounded {
        def: lower("query_us_p50", "us"),
        bound: 0.25,
        exact: false,
    },
    Bounded {
        def: lower("query_us_p95", "us"),
        bound: 0.25,
        exact: false,
    },
    Bounded {
        def: higher("cell_match_pct", "%"),
        bound: 0.13,
        exact: true,
    },
    Bounded {
        def: lower("peak_rss_mb", "MB"),
        bound: 0.20,
        exact: false,
    },
];

/// End-to-end figures that are exact functions of the seed and zero on
/// the workloads that issue no prompts, so they carry no relative bound:
/// `--agree` demands they be *identical* between two runs of one seed.
/// The unit `vms` is simulated model-clock milliseconds, not wall time.
pub const DETERMINISTIC: &[MetricDef] = &[
    lower("model_virtual_ms_per_query", "vms"),
    lower("query_virtual_ms_p95", "vms"),
    lower("prompts_per_query", "count"),
    lower("tokens_per_query", "count"),
    lower("failed_share", "share"),
    lower("cardinality_diff_pct", "%"),
];

/// Per-layer metrics of the traced run. Module names are the layers.
pub const PER_LAYER: &[MetricDef] = &[
    lower("sql.tokenize_ns_per_query", "ns"),
    lower("sql.parse_ns_per_query", "ns"),
    lower("relational.plan_ns_per_query", "ns"),
    lower("core.compile.ns_per_query", "ns"),
    lower("core.compile.steps_per_query", "count"),
    lower("core.plan_choice.plan_ns_per_query", "ns"),
    lower("core.plan_choice.explain_ns_per_query", "ns"),
    lower("core.session.new_us", "us"),
    lower("core.session.execute_us_per_query", "us"),
    lower("core.session.self_us_per_query", "us"),
    lower("core.session.rows_retrieved_per_query", "count"),
    higher("core.session.cache_hits_per_query", "count"),
    lower("core.session.list_virtual_ms", "vms"),
    lower("core.session.filter_virtual_ms", "vms"),
    lower("core.session.fetch_virtual_ms", "vms"),
    lower("core.session.drop_ms", "ms"),
    lower("core.prompts.render_ns_per_prompt", "ns"),
    lower("core.prompts.bytes_per_prompt", "bytes"),
    lower("core.parse.list_ns_per_answer", "ns"),
    lower("core.parse.value_ns_per_answer", "ns"),
    lower("core.parse.boolean_ns_per_answer", "ns"),
    lower("core.clean.ns_per_cell", "ns"),
    lower("llm.tokenizer.ns_per_kb", "ns"),
    lower("llm.client.miss_ns_per_prompt", "ns"),
    lower("llm.client.hit_ns_per_prompt", "ns"),
    lower("llm.client.sub_store_ns_per_entry", "ns"),
    lower("llm.client.sub_hit_ns_per_entry", "ns"),
    lower("llm.client.key_universe_read_ns", "ns"),
    higher("llm.client.hit_share", "share"),
    lower("llm.simllm.complete_us_per_call", "us"),
    lower("llm.simllm.calls_per_query", "count"),
    lower("llm.simllm.prompt_bytes_per_call", "bytes"),
    lower("llm.simllm.busy_share", "share"),
    lower("llm.intent.parse_task_ns_per_prompt", "ns"),
    lower("llm.intent.split_grid_ns_per_answer", "ns"),
    lower("llm.lanes.lane_schedule_ns_per_task", "ns"),
    lower("llm.lanes.event_clock_ns_per_task", "ns"),
    lower("llm.lanes.lane_pool_ns_per_task", "ns"),
    lower("core.schedule.wave_ns_per_unit", "ns"),
    lower("core.multi.run_us_per_query", "us"),
    lower("core.multi.makespan_virtual_ms", "vms"),
    lower("core.multi.queue_virtual_ms", "vms"),
    lower("relational.truth_exec_us_per_query", "us"),
    lower("relational.rows_per_query", "count"),
    lower("dataset.world_gen_s", "s"),
    lower("dataset.to_database_s", "s"),
    lower("dataset.to_knowledge_s", "s"),
    lower("dataset.build_suite_s", "s"),
    lower("eval.match_us_per_query", "us"),
    lower("harness.pass_wall_ms_p50", "ms"),
    lower("harness.calibration_ms_p50", "ms"),
    lower("harness.norm_factor_iqr", "share"),
    lower("harness.replay_miss", "count"),
    lower("trace.overhead_pct", "%"),
    higher("trace.coverage_pct", "%"),
    // The exact figures above, repeated here because the result line of
    // an untraced run may only carry metrics that are never zero.
    lower("model_virtual_ms_per_query", "vms"),
    lower("query_virtual_ms_p95", "vms"),
    lower("prompts_per_query", "count"),
    lower("tokens_per_query", "count"),
    lower("cardinality_diff_pct", "%"),
];

/// Metrics gathered during a run, in emission order.
#[derive(Default)]
pub struct Report {
    values: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(self.get(name).is_none(), "{name} reported twice");
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Prints `name value unit` for every definition, and returns the
    /// `metrics` object of the result line. A definition without a
    /// finite value is a harness bug and is returned as an error.
    pub fn emit<'a>(&self, defs: impl IntoIterator<Item = &'a MetricDef>) -> Result<Json, String> {
        let mut fields = Vec::new();
        for def in defs {
            let value = self
                .get(def.name)
                .filter(|v| v.is_finite())
                .ok_or_else(|| format!("metric {} was not measured", def.name))?;
            println!("{} {} {}", def.name, value, def.unit);
            fields.push((
                def.name,
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(def.unit.into())),
                ]),
            ));
        }
        Ok(Json::obj(fields))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn spec_entry(def: &MetricDef, bound: Option<f64>) -> Json {
        let mut fields = vec![
            ("name", Json::Str(def.name.into())),
            ("unit", Json::Str(def.unit.into())),
            ("better", Json::Str(def.better.as_str().into())),
        ];
        if let Some(bound) = bound {
            fields.push(("bound", Json::Num(bound)));
        }
        Json::obj(fields)
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let spec = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let e2e: Vec<Json> = END_TO_END
            .iter()
            .map(|m| spec_entry(&m.def, Some(m.bound)))
            .collect();
        assert_eq!(spec.get("end_to_end").unwrap().items(), e2e.as_slice());
        let layers: Vec<Json> = PER_LAYER.iter().map(|m| spec_entry(m, None)).collect();
        assert_eq!(spec.get("per_layer").unwrap().items(), layers.as_slice());
        let workloads: Vec<&str> = spec
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .filter_map(|w| w.get("name")?.as_str())
            .collect();
        let ours: Vec<&str> = crate::workload::SPECS.iter().map(|s| s.name).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn registry_meets_the_contract_limits() {
        assert!(END_TO_END
            .iter()
            .any(|m| m.def.name == "setup_s" && m.def.unit == "s"));
        let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert!(largest <= 0.25);
        assert_eq!(
            END_TO_END[0].bound, largest,
            "set-up carries the largest bound"
        );
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = BTreeSet::new();
        let all = END_TO_END.iter().map(|m| &m.def).chain(PER_LAYER);
        for def in all {
            assert!(seen.insert(def.name), "{} listed twice", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
            assert!(def.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        // The exact figures are printed by every run and repeated per layer.
        for def in DETERMINISTIC.iter().filter(|d| d.name != "failed_share") {
            assert!(PER_LAYER.iter().any(|l| l.name == def.name));
        }
    }
}
