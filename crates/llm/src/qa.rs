//! Question answering over the knowledge store — the behaviour behind the
//! paper's QA baselines `T_M` (plain NL question) and `T_C_M`
//! (chain-of-thought).
//!
//! The same stable beliefs as the operator path are used (an LLM has one
//! set of parameters), but the *work* differs: the model enumerates,
//! filters, joins and aggregates internally in a single shot. That is
//! precisely where LLMs are weak (paper §3: "they fail with numerical
//! comparisons"; §5: aggregates reach only 20% as NL questions), so this
//! path adds arithmetic error and row dropout on top of the shared
//! perception noise.

use crate::knowledge::FactValue;
use crate::nlq::{AggKind, QueryIntent};
use crate::noise;
use crate::simllm::{fact_number, SimLlm};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Answers a parsed NL question as free text.
pub fn answer_question(model: &SimLlm, q: &QueryIntent, cot: bool, prompt: &str) -> String {
    let ty = model.relation_type(&q.relation);
    let kb = model.knowledge();
    let ids = kb.ids_of_type(&ty);
    if ids.is_empty() {
        return "Unknown".to_string();
    }
    let profile = model.profile().clone();
    let mut rng = StdRng::seed_from_u64(noise::seeded(profile.seed, &["qa", prompt]));

    // Enumerate + filter with the model's stable beliefs; QA answers also
    // drop rows (models tire of long enumerations).
    let mut survivors = Vec::new();
    for e in ids.iter().map(|id| kb.entity(*id)) {
        if !model.recalls(e) {
            continue;
        }
        if let Some(cond) = &q.condition {
            if !model.condition_holds(e, cond).unwrap_or(false) {
                continue;
            }
        }
        if rng.gen::<f64>() < profile.qa_row_dropout {
            continue;
        }
        survivors.push(e);
    }

    if let Some(agg) = &q.aggregate {
        return answer_aggregate(model, q, agg, &survivors, cot, &mut rng);
    }

    if survivors.is_empty() {
        return "None".to_string();
    }

    // Plain listing, optionally with a join hop.
    let mut lines = Vec::new();
    let mut simple_keys = Vec::new();
    for e in &survivors {
        let mut cells = Vec::new();
        for attr in &q.select {
            let rendered = match model.perceived_fact(e, attr) {
                Some(v) => model.render_value(&v, &ty, attr, &mut rng),
                None => {
                    if attr.eq_ignore_ascii_case("name")
                        || kb.resolve(&ty, &e.name).is_some()
                            && kb.fact(e.id, attr).is_none()
                            && is_key_like(attr)
                    {
                        e.name.clone()
                    } else {
                        "unknown".to_string()
                    }
                }
            };
            cells.push(rendered);
        }
        if let Some(join) = &q.join {
            // One-shot multi-hop reasoning fails for most rows — the model
            // silently skips entities it cannot complete (the paper's T_M
            // joins reach 8%, T_C_M 0%); CoT makes it slightly worse.
            let join_dropout = (profile.qa_join_dropout
                * if cot {
                    profile.cot_arithmetic_factor
                } else {
                    1.0
                })
            .min(0.99);
            if rng.gen::<f64>() < join_dropout {
                continue;
            }
            let related = model
                .perceived_fact(e, &join.via_attribute)
                .and_then(|v| match v {
                    FactValue::Entity(id) => {
                        let target = kb.entity(id);
                        model
                            .perceived_fact(target, &join.related_attribute)
                            .map(|rv| {
                                model.render_value(
                                    &rv,
                                    &target.entity_type.clone(),
                                    &join.related_attribute,
                                    &mut rng,
                                )
                            })
                    }
                    other => Some(model.render_value(&other, &ty, &join.via_attribute, &mut rng)),
                })
                .unwrap_or_else(|| "unknown".to_string());
            cells.push(related);
        }
        if cells.len() == 1 {
            simple_keys.push(cells.remove(0));
        } else {
            let head = cells.remove(0);
            lines.push(format!("- {head}: {}", cells.join(", ")));
        }
    }

    if !simple_keys.is_empty() {
        let list = simple_keys.join(", ");
        if profile.verbose {
            format!("The {} values are: {list}.", q.select[0])
        } else {
            format!("{list}.")
        }
    } else if profile.verbose {
        format!("Here is what I found:\n{}", lines.join("\n"))
    } else {
        lines.join("\n")
    }
}

fn is_key_like(attr: &str) -> bool {
    let a = attr.to_ascii_lowercase();
    a == "name" || a.ends_with("name") || a == "code" || a == "title"
}

fn answer_aggregate(
    model: &SimLlm,
    q: &QueryIntent,
    agg: &crate::nlq::AggIntent,
    survivors: &[&crate::knowledge::Entity],
    cot: bool,
    rng: &mut StdRng,
) -> String {
    let profile = model.profile().clone();
    let arith_err = profile.arithmetic_rel_err
        * if cot {
            profile.cot_arithmetic_factor
        } else {
            1.0
        };
    let ty = model.relation_type(&q.relation);

    let compute = |vals: &[f64], rng: &mut StdRng| -> Option<f64> {
        let exact = match agg.kind {
            AggKind::Count => vals.len() as f64,
            AggKind::Sum => vals.iter().sum(),
            AggKind::Avg => {
                if vals.is_empty() {
                    return None;
                }
                vals.iter().sum::<f64>() / vals.len() as f64
            }
            AggKind::Min => vals.iter().copied().fold(f64::INFINITY, f64::min),
            AggKind::Max => vals.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        };
        if !exact.is_finite() {
            return None;
        }
        // MIN/MAX are selections, not arithmetic: the model can usually
        // pick an element; errors come from its wrong beliefs. COUNT/SUM/
        // AVG require the arithmetic the paper says LLMs are bad at.
        let noisy = match agg.kind {
            AggKind::Min | AggKind::Max => exact,
            _ => noise::perturb_number(exact, arith_err, rng),
        };
        Some(noisy)
    };

    let member_values = |members: &[&crate::knowledge::Entity]| -> Vec<f64> {
        match (&agg.attribute, agg.kind) {
            (None, _) | (_, AggKind::Count) => vec![0.0; members.len()],
            (Some(attr), _) => members
                .iter()
                .filter_map(|e| model.perceived_fact(e, attr).as_ref().and_then(fact_number))
                .collect(),
        }
    };

    match &agg.group_by {
        None => {
            let vals = member_values(survivors);
            match compute(&vals, rng) {
                Some(v) => {
                    let rendered = noise::render_number(
                        v,
                        noise::pick_number_style(rng, profile.format_noise),
                    );
                    if profile.verbose {
                        format!("The answer is {rendered}.")
                    } else {
                        rendered
                    }
                }
                None => "Unknown".to_string(),
            }
        }
        Some(group_attr) => {
            // Group members by the *believed* group value.
            let mut order: Vec<String> = Vec::new();
            let mut groups: std::collections::HashMap<String, Vec<&crate::knowledge::Entity>> =
                std::collections::HashMap::new();
            for e in survivors {
                let label = match model.perceived_fact(e, group_attr) {
                    Some(v) => model.render_value(&v, &ty, group_attr, rng),
                    None => continue,
                };
                if !groups.contains_key(&label) {
                    order.push(label.clone());
                }
                groups.entry(label).or_default().push(e);
            }
            if order.is_empty() {
                return "Unknown".to_string();
            }
            let mut lines = Vec::new();
            for label in order {
                let members = &groups[&label];
                let vals = member_values(members);
                if let Some(v) = compute(&vals, rng) {
                    let rendered = noise::render_number(
                        v,
                        noise::pick_number_style(rng, profile.format_noise),
                    );
                    lines.push(format!("- {label}: {rendered}"));
                }
            }
            lines.join("\n")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knowledge::KnowledgeStore;
    use crate::nlq::{AggIntent, JoinIntent};
    use crate::profiles::ModelProfile;
    use std::sync::Arc;

    fn model(profile: ModelProfile) -> SimLlm {
        let mut kb = KnowledgeStore::new();
        let italy = kb.add_entity("Italy", "country", 0.95);
        let france = kb.add_entity("France", "country", 0.9);
        let mayor = kb.add_entity("Anna Rossi", "mayor", 0.6);
        kb.add_fact(
            mayor,
            "birthDate",
            FactValue::Date {
                year: 1961,
                month: 5,
                day: 8,
            },
        );
        for (name, pop, n, c) in [
            ("Rome", 0.95, 2_800_000.0, italy),
            ("Milan", 0.7, 1_400_000.0, italy),
            ("Paris", 0.93, 2_100_000.0, france),
            ("Lyon", 0.35, 500_000.0, france),
        ] {
            let e = kb.add_entity(name, "city", pop);
            kb.add_fact(e, "population", FactValue::Number(n));
            kb.add_fact(e, "country", FactValue::Entity(c));
            kb.add_fact(e, "mayor", FactValue::Entity(mayor));
        }
        SimLlm::new(Arc::new(kb), profile)
    }

    fn q_list() -> QueryIntent {
        QueryIntent {
            relation: "city".into(),
            select: vec!["name".into()],
            condition: None,
            join: None,
            aggregate: None,
        }
    }

    #[test]
    fn oracle_lists_everything() {
        let m = model(ModelProfile::oracle());
        let ans = answer_question(&m, &q_list(), false, "p");
        for c in ["Rome", "Milan", "Paris", "Lyon"] {
            assert!(ans.contains(c), "{ans}");
        }
    }

    #[test]
    fn oracle_count_is_exact() {
        let m = model(ModelProfile::oracle());
        let q = QueryIntent {
            relation: "city".into(),
            select: vec![],
            condition: None,
            join: None,
            aggregate: Some(AggIntent {
                kind: AggKind::Count,
                attribute: None,
                group_by: None,
            }),
        };
        assert_eq!(answer_question(&m, &q, false, "p"), "4");
    }

    #[test]
    fn oracle_avg_is_exact() {
        let m = model(ModelProfile::oracle());
        let q = QueryIntent {
            relation: "city".into(),
            select: vec![],
            condition: None,
            join: None,
            aggregate: Some(AggIntent {
                kind: AggKind::Avg,
                attribute: Some("population".into()),
                group_by: None,
            }),
        };
        assert_eq!(answer_question(&m, &q, false, "p"), "1700000");
    }

    #[test]
    fn oracle_group_by_count() {
        let m = model(ModelProfile::oracle());
        let q = QueryIntent {
            relation: "city".into(),
            select: vec![],
            condition: None,
            join: None,
            aggregate: Some(AggIntent {
                kind: AggKind::Count,
                attribute: None,
                group_by: Some("country".into()),
            }),
        };
        let ans = answer_question(&m, &q, false, "p");
        assert!(ans.contains("- Italy: 2"), "{ans}");
        assert!(ans.contains("- France: 2"), "{ans}");
    }

    #[test]
    fn oracle_join_reports_related_attribute() {
        let m = model(ModelProfile::oracle());
        let q = QueryIntent {
            relation: "city".into(),
            select: vec!["name".into()],
            condition: None,
            join: Some(JoinIntent {
                via_attribute: "mayor".into(),
                related_attribute: "birthDate".into(),
            }),
            aggregate: None,
        };
        let ans = answer_question(&m, &q, false, "p");
        assert!(ans.contains("Rome: 1961-05-08"), "{ans}");
    }

    #[test]
    fn noisy_models_miss_rows_in_qa() {
        let m = model(ModelProfile::flan());
        let ans = answer_question(&m, &q_list(), false, "p");
        let hits = ["Rome", "Milan", "Paris", "Lyon"]
            .iter()
            .filter(|c| ans.contains(**c))
            .count();
        assert!(hits < 4, "flan should miss rows: {ans}");
    }

    #[test]
    fn cot_flag_changes_aggregate_answer() {
        let m = model(ModelProfile::chatgpt());
        let q = QueryIntent {
            relation: "city".into(),
            select: vec![],
            condition: None,
            join: None,
            aggregate: Some(AggIntent {
                kind: AggKind::Sum,
                attribute: Some("population".into()),
                group_by: None,
            }),
        };
        // Different prompts → different noise draws; both must stay
        // parseable text.
        let a = answer_question(&m, &q, false, "plain prompt");
        let b = answer_question(&m, &q, true, "cot prompt step by step");
        assert!(!a.is_empty() && !b.is_empty());
    }

    #[test]
    fn unknown_relation_is_unknown() {
        let m = model(ModelProfile::oracle());
        let q = QueryIntent {
            relation: "volcano".into(),
            select: vec!["name".into()],
            condition: None,
            join: None,
            aggregate: None,
        };
        assert_eq!(answer_question(&m, &q, false, "p"), "Unknown");
    }
}
