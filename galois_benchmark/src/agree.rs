//! `--agree`: do two result sets of the same code agree within the
//! benchmark's own bounds?
//!
//! A result set is what `--out` writes: every metric every workload
//! printed, under one seed. Measured metrics must differ by no more than
//! their bound (as a share of the smaller reading, so the check is the
//! same whichever set is called the parent); the exact metrics —
//! `cell_match_pct` among them, whatever bound the driver holds it to —
//! must be identical. A `--quick` set is no measurement and is refused.

use std::path::Path;

use crate::json::Json;
use crate::metrics::{DETERMINISTIC, END_TO_END};
use crate::stats::median;
use crate::workload::SPECS;

/// What one or more sweeps over the five workloads printed: per
/// workload, every `name value unit` line, as the median over `runs`
/// sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    pub quick: bool,
    pub traced: bool,
    pub seed: u64,
    pub runs: usize,
    pub workloads: Vec<(String, Vec<(String, f64)>)>,
}

impl ResultSet {
    pub fn reading(&self, workload: &str, metric: &str) -> Option<f64> {
        let (_, readings) = self.workloads.iter().find(|(name, _)| name == workload)?;
        readings
            .iter()
            .find(|(name, _)| name == metric)
            .map(|&(_, value)| value)
    }

    /// The per-metric median of several sweeps of one configuration
    /// (`--runs` is at least one, so there is a first).
    pub fn median_of(sweeps: &[ResultSet]) -> ResultSet {
        let first = &sweeps[0];
        let workloads = first
            .workloads
            .iter()
            .map(|(workload, readings)| {
                let medians = readings
                    .iter()
                    .map(|(metric, _)| {
                        let values: Vec<f64> = sweeps
                            .iter()
                            .filter_map(|s| s.reading(workload, metric))
                            .collect();
                        (metric.clone(), median(&values))
                    })
                    .collect();
                (workload.clone(), medians)
            })
            .collect();
        ResultSet {
            runs: sweeps.iter().map(|s| s.runs).sum(),
            workloads,
            ..first.clone()
        }
    }

    pub fn to_json(&self) -> Json {
        let workloads = self.workloads.iter().map(|(workload, readings)| {
            (
                workload.clone(),
                Json::obj(
                    readings
                        .iter()
                        .map(|(metric, value)| (metric.clone(), Json::Num(*value))),
                ),
            )
        });
        Json::obj([
            ("quick", Json::Bool(self.quick)),
            ("traced", Json::Bool(self.traced)),
            ("seed", Json::Num(self.seed as f64)),
            ("runs", Json::Num(self.runs as f64)),
            ("workloads", Json::obj(workloads)),
        ])
    }

    pub fn from_json(json: &Json) -> Option<ResultSet> {
        let workloads = json
            .get("workloads")?
            .fields()
            .iter()
            .map(|(workload, readings)| {
                let readings = readings
                    .fields()
                    .iter()
                    .filter_map(|(metric, value)| Some((metric.clone(), value.as_f64()?)));
                (workload.clone(), readings.collect())
            });
        Some(ResultSet {
            quick: json.get("quick")?.as_bool()?,
            traced: json.get("traced")?.as_bool()?,
            seed: json.get("seed")?.as_f64()? as u64,
            runs: json.get("runs")?.as_f64()? as usize,
            workloads: workloads.collect(),
        })
    }

    pub fn write(&self, path: &Path) -> Result<(), String> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, self.to_json().render() + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }

    fn read(path: &Path) -> Result<ResultSet, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        ResultSet::from_json(&json).ok_or_else(|| format!("{}: not a result set", path.display()))
    }
}

/// The share by which two readings differ, relative to the smaller.
pub fn disagreement(a: f64, b: f64) -> f64 {
    let base = a.abs().min(b.abs());
    if a == b {
        0.0
    } else if base == 0.0 {
        f64::INFINITY
    } else {
        (a - b).abs() / base
    }
}

/// Compares two result sets, prints the table, and returns an error
/// naming the count of disagreements. Only full, untraced sets of one
/// seed are measurements of the same thing.
pub fn agree(a: &ResultSet, b: &ResultSet) -> Result<(), String> {
    if a.quick || b.quick {
        return Err("a --quick result set is a smoke test, not a measurement".into());
    }
    if a.traced || b.traced {
        return Err("end-to-end metrics come from untraced runs".into());
    }
    if a.seed != b.seed {
        return Err("the two result sets were measured under different seeds".into());
    }
    let mut disagreements = 0;
    println!(
        "{:<14} {:<28} {:<7} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "better", "a", "b", "differ", "bound"
    );
    for spec in SPECS {
        let bounded = END_TO_END
            .iter()
            .map(|m| (&m.def, Some(m.bound).filter(|_| !m.exact)));
        let exact = DETERMINISTIC.iter().map(|d| (d, None));
        for (def, bound) in bounded.chain(exact) {
            let reading = |set: &ResultSet| {
                set.reading(spec.name, def.name)
                    .ok_or_else(|| format!("{} has no {}", spec.name, def.name))
            };
            let (x, y) = (reading(a)?, reading(b)?);
            let differ = disagreement(x, y);
            let ok = differ <= bound.unwrap_or(0.0);
            disagreements += usize::from(!ok);
            println!(
                "{:<14} {:<28} {:<7} {:>14.4} {:>14.4} {:>8.2}% {:>7}  {}",
                spec.name,
                def.name,
                def.better.as_str(),
                x,
                y,
                100.0 * differ,
                bound.map_or("exact".to_string(), |b| format!("{:.0}%", 100.0 * b)),
                if ok { "ok" } else { "DISAGREE" }
            );
        }
    }
    match disagreements {
        0 => Ok(()),
        n => Err(format!("{n} metric(s) disagree beyond their bound")),
    }
}

pub fn agree_files(a: &Path, b: &Path) -> Result<(), String> {
    agree(&ResultSet::read(a)?, &ResultSet::read(b)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_set(queries_per_s: f64, prompts: f64, quick: bool) -> ResultSet {
        let readings = || {
            let bounded = END_TO_END.iter().map(|m| {
                (
                    m.def.name,
                    if m.def.name == "queries_per_s" {
                        queries_per_s
                    } else {
                        5.0
                    },
                )
            });
            let exact = DETERMINISTIC.iter().map(|d| {
                (
                    d.name,
                    if d.name == "prompts_per_query" {
                        prompts
                    } else {
                        0.0
                    },
                )
            });
            bounded
                .chain(exact)
                .map(|(name, value)| (name.to_string(), value))
                .collect()
        };
        ResultSet {
            quick,
            traced: false,
            seed: 42,
            runs: 1,
            workloads: SPECS
                .iter()
                .map(|s| (s.name.to_string(), readings()))
                .collect(),
        }
    }

    #[test]
    fn bounded_metrics_may_differ_within_their_bound_exact_ones_not_at_all() {
        let bound = END_TO_END
            .iter()
            .find(|m| m.def.name == "queries_per_s")
            .unwrap()
            .bound;
        let base = result_set(100.0, 600.0, false);
        assert!(agree(&base, &base).is_ok());
        assert!(agree(
            &base,
            &result_set(100.0 * (1.0 + 0.9 * bound), 600.0, false)
        )
        .is_ok());
        assert!(agree(
            &base,
            &result_set(100.0 * (1.0 + 1.1 * bound), 600.0, false)
        )
        .is_err());
        // The check is symmetric in its arguments.
        assert!(agree(
            &result_set(100.0 * (1.0 + 1.1 * bound), 600.0, false),
            &base
        )
        .is_err());
        assert!(agree(&base, &result_set(100.0, 601.0, false)).is_err());
        // Quality is exact under one seed, however wide its driver bound.
        let mut worse = base.clone();
        for (_, readings) in &mut worse.workloads {
            for (name, value) in readings {
                if name == "cell_match_pct" {
                    *value *= 0.999;
                }
            }
        }
        assert!(agree(&base, &worse).is_err());
        assert_eq!(disagreement(0.0, 0.0), 0.0);
        assert_eq!(disagreement(0.0, 1.0), f64::INFINITY);
    }

    #[test]
    fn quick_traced_and_foreign_sets_are_refused() {
        let full = result_set(100.0, 600.0, false);
        let refused = agree(&full, &result_set(100.0, 600.0, true)).unwrap_err();
        assert!(refused.contains("--quick"), "{refused}");
        let traced = ResultSet {
            traced: true,
            ..full.clone()
        };
        assert!(agree(&traced, &full).is_err());
        let other_seed = ResultSet {
            seed: 7,
            ..full.clone()
        };
        assert!(agree(&full, &other_seed).is_err());
        let mut incomplete = full.clone();
        incomplete.workloads.pop();
        assert!(agree(&full, &incomplete).is_err());
        assert!(agree_files(Path::new("no-such-a.json"), Path::new("no-such-b.json")).is_err());
    }

    #[test]
    fn result_sets_round_trip_and_take_medians() {
        let sweeps = [
            result_set(90.0, 600.0, false),
            result_set(130.0, 600.0, false),
            result_set(100.0, 600.0, false),
        ];
        let set = ResultSet::median_of(&sweeps);
        assert_eq!(set.runs, 3);
        assert_eq!(set.reading("frontend", "queries_per_s"), Some(100.0));
        assert_eq!(set.reading("frontend", "prompts_per_query"), Some(600.0));
        assert_eq!(set.reading("frontend", "no_such_metric"), None);
        let json = Json::parse(&set.to_json().render()).unwrap();
        assert_eq!(ResultSet::from_json(&json), Some(set));
        assert_eq!(ResultSet::from_json(&Json::Null), None);
    }
}
