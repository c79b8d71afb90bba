//! `galois_benchmark` — the calibrated wall-clock benchmark.
//!
//! ```text
//! galois_benchmark [--workload <name>|all] [--seed <u64>] [--seconds <n>]
//!                  [--trace [0|1]] [--quick] [--runs <n>] [--out <result-set.json>]
//! galois_benchmark --agree <a.json> <b.json>
//! galois_benchmark --self-check [--seed <u64>] [--seconds <n>] [--runs <n>]
//! ```
//!
//! One workload per process (so `peak_rss_mb` is that workload's own);
//! `all`, the default, runs the five in turn as child processes, `--runs`
//! times over, and `--out` keeps the per-metric medians. Every
//! metric is printed as `name value unit`, the last line of standard
//! output is the result object, and the exit code is non-zero if any
//! output was wrong. See `README.md` beside this file for the glossary.

mod agree;
mod calibrate;
mod json;
mod layers;
mod metrics;
mod models;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use agree::ResultSet;
use calibrate::{norm_factor, Calibrator};
use json::Json;
use metrics::{Report, DETERMINISTIC, END_TO_END, PER_LAYER};
use stats::{iqr_share, median, percentile, samples_beyond, MIN_BEYOND};
use workload::{Spec, MIN_PASSES, QUICK_PASSES, QUICK_SCALE, SPECS};

/// Set-ups per untraced run; `setup_s` is their median. The driver's
/// contract asks for several per run: a later change is rejected on
/// `setup_s` alone, and one set-up is one sample between two kernel runs.
const SETUP_REPEATS: usize = 3;
/// This package is a workspace of its own and inherits no `[profile.*]`
/// table from the repository's root manifest, so a profile added there
/// would build the engine one way for its users and another way here.
const ROOT_MANIFEST: &str = include_str!("../../Cargo.toml");
const OWN_MANIFEST: &str = include_str!("../Cargo.toml");
/// Sweeps per result set of `--self-check`, unless `--runs` says otherwise.
const SELF_CHECK_RUNS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    runs: Option<usize>,
    out: Option<PathBuf>,
    agree: Option<(PathBuf, PathBuf)>,
    self_check: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 42,
        seconds: 10.0,
        trace: false,
        quick: false,
        runs: None,
        out: None,
        agree: None,
        self_check: false,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        let flag = argv[i].as_str();
        match flag {
            "--workload" => args.workload = value(&mut i, flag)?,
            "--seed" => {
                let text = value(&mut i, flag)?;
                args.seed = text
                    .parse()
                    .map_err(|_| format!("--seed: not a u64: {text}"))?;
            }
            "--seconds" => {
                let text = value(&mut i, flag)?;
                args.seconds = text
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds: not a duration: {text}"))?;
            }
            "--trace" => {
                // `--trace`, `--trace 1` and `--trace 0` are all accepted.
                args.trace = match argv.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => args.quick = true,
            "--runs" => {
                let text = value(&mut i, flag)?;
                let runs = text.parse().ok().filter(|&n: &usize| n >= 1);
                args.runs = Some(runs.ok_or_else(|| format!("--runs: not a count: {text}"))?);
            }
            "--out" => args.out = Some(value(&mut i, flag)?.into()),
            "--agree" => {
                args.agree = Some((value(&mut i, flag)?.into(), value(&mut i, flag)?.into()))
            }
            "--self-check" => args.self_check = true,
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    Ok(args)
}

/// Where the benchmark writes (trace files, self-check result sets):
/// cargo's target directory, which the repository already ignores.
fn output_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("galois_benchmark")
}

/// The `[profile.*]` tables of a manifest, line by line, without blank
/// lines and comments.
fn profile_tables(manifest: &str) -> Vec<&str> {
    let mut inside = false;
    manifest
        .lines()
        .map(str::trim)
        .filter(|line| {
            if line.starts_with('[') {
                inside = line.starts_with("[profile");
            }
            inside && !line.is_empty() && !line.starts_with('#')
        })
        .collect()
}

/// Prints the result line and maps the verdict to the exit code. A
/// metric that was never measured is a harness bug: no result line.
fn finish(
    quick: bool,
    attempted: usize,
    failed: usize,
    correct: bool,
    metrics: Result<Json, String>,
) -> ExitCode {
    let metrics = match metrics {
        Ok(metrics) => metrics,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let mut fields = vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics),
    ];
    if quick {
        fields.push(("quick", Json::Bool(true)));
    }
    println!("{}", Json::obj(fields).render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_untraced(spec: &Spec, args: &Args) -> ExitCode {
    let scale = if args.quick { QUICK_SCALE } else { spec.scale };
    let (seconds, min_passes) = if args.quick {
        (0.0, QUICK_PASSES)
    } else {
        (args.seconds, MIN_PASSES)
    };
    let mut calibrator = Calibrator::new();
    // One kernel run touches the kernel's buffers: from here on the
    // process's peak grows by what the workload allocates.
    calibrator.run();
    let rss_floor_mb = workload::peak_rss_mb().unwrap_or(f64::NAN);
    // A smoke run scores its own world alone: the panel is a quarter of
    // the time `--quick` may take.
    let panel = if args.quick {
        workload::Panel::default()
    } else {
        workload::panel(spec, args.seed, scale)
    };

    // Set-up, several times over: the median is steadier than one shot,
    // and the last one's products serve the measured passes.
    let mut setups_s = Vec::new();
    let mut prepared = None;
    for _ in 0..if args.quick { 1 } else { SETUP_REPEATS } {
        drop(prepared.take());
        let cal_before = calibrator.run();
        let started = Instant::now();
        prepared = Some(workload::prepare(spec, args.seed, scale, None));
        let wall_s = started.elapsed().as_secs_f64();
        setups_s.push(wall_s * norm_factor(cal_before, calibrator.run()));
    }
    let prepared = prepared.expect("at least one set-up");
    let verdict = workload::verify(spec, &prepared, panel);
    let measured = workload::measure(
        spec,
        &prepared,
        &verdict.pinned,
        &mut calibrator,
        seconds,
        min_passes,
    );

    let statements = prepared.statements.len();
    let replay_miss = prepared.replay.as_ref().map_or(0, |r| r.misses()) as usize;
    let attempted = prepared.warmup_attempted
        + prepared.first.len()
        + verdict.panel_attempted
        + measured.attempted;
    let failed = verdict.failed + measured.failed + replay_miss;
    let mut latencies = measured.latency_norm_us.clone();
    stats::sort(&mut latencies);
    let beyond = samples_beyond(latencies.len(), 95.0);

    let mut report = Report::default();
    report.set("setup_s", median(&setups_s));
    report.set(
        "queries_per_s",
        statements as f64 / (median(&measured.pass_norm_ns) / 1e9),
    );
    report.set("query_us_p50", percentile(&latencies, 50.0));
    report.set("query_us_p95", percentile(&latencies, 95.0));
    report.set("cell_match_pct", verdict.cell_match_pct);
    report.set(
        "peak_rss_mb",
        workload::peak_rss_mb().unwrap_or(f64::NAN) - rss_floor_mb,
    );
    measured.cost.report(&mut report);
    report.set("failed_share", failed as f64 / attempted as f64);
    report.set("cardinality_diff_pct", verdict.cardinality_diff_pct);

    println!(
        "# workload {} seed {} scale x{} quick {} statements {} passes {} calibrations {} measured_s {:.1} (statement time) section_s {:.1}",
        spec.name,
        args.seed,
        scale,
        args.quick,
        statements,
        measured.pass_wall_ns.len(),
        measured.calibration_ns.len(),
        measured.pass_wall_ns.iter().sum::<f64>() / 1e9,
        measured.section_s,
    );
    println!("# why: {}", spec.why);
    println!(
        "# query_us percentiles over {} samples, {} beyond p95 (at least {MIN_BEYOND} required)",
        latencies.len(),
        beyond
    );
    let emitted = report
        .emit(END_TO_END.iter().map(|m| &m.def))
        .and_then(|metrics| report.emit(DETERMINISTIC).map(|_| metrics));
    // Raw wall figures: what normalisation was applied to, never a result.
    println!(
        "harness.pass_wall_ms_p50 {} ms",
        median(&measured.pass_wall_ns) / 1e6
    );
    println!(
        "harness.calibration_ms_p50 {} ms",
        median(&measured.calibration_ns) / 1e6
    );
    println!(
        "harness.norm_factor_iqr {} share",
        iqr_share(&measured.norm_factors)
    );
    println!("harness.setup_spread {} share", iqr_share(&setups_s));
    println!("harness.rss_floor_mb {rss_floor_mb} MB");
    println!("harness.replay_miss {replay_miss} count");
    let enough_tail = args.quick || beyond >= MIN_BEYOND;
    if !enough_tail {
        eprintln!("query_us_p95 has only {beyond} samples beyond it");
    }
    finish(
        args.quick,
        attempted,
        failed,
        failed == 0 && enough_tail,
        emitted,
    )
}

fn run_traced(spec: &Spec, args: &Args) -> ExitCode {
    let scale = if args.quick { QUICK_SCALE } else { spec.scale };
    let traced = layers::run(spec, args.seed, scale);
    println!(
        "# workload {} seed {} scale x{} quick {} traced spans {}",
        spec.name,
        args.seed,
        scale,
        args.quick,
        traced.spans.len()
    );
    for (name, count, total_ns, self_ns) in trace::totals_by_name(&traced.spans) {
        println!(
            "# span {name}: {count} spans, {:.3} ms total, {:.3} ms self",
            total_ns as f64 / 1e6,
            self_ns as f64 / 1e6
        );
    }
    let dir = output_dir();
    let path = dir.join(format!("{}.trace.json", spec.name));
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(
            &path,
            trace::to_json(spec.name, args.seed, &traced.spans).render(),
        )
    });
    match written {
        Ok(()) => println!("# trace written to {}", path.display()),
        Err(error) => {
            eprintln!("cannot write {}: {error}", path.display());
            return ExitCode::FAILURE;
        }
    }
    finish(
        args.quick,
        traced.attempted,
        traced.failed,
        traced.failed == 0,
        traced.report.emit(PER_LAYER),
    )
}

/// One sweep: every workload as a child process of this executable,
/// its output echoed, the metrics it printed collected.
fn sweep(args: &Args) -> Result<ResultSet, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut workloads = Vec::new();
    for spec in SPECS {
        let mut command = Command::new(&exe);
        command
            .args(["--workload", spec.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdout(Stdio::piped());
        if args.quick {
            command.arg("--quick");
        }
        let output = command
            .output()
            .map_err(|e| format!("cannot run {}: {e}", spec.name))?;
        let text = String::from_utf8_lossy(&output.stdout);
        print!("{text}");
        if !output.status.success() {
            return Err(format!("workload {} failed ({})", spec.name, output.status));
        }
        let mut readings: Vec<(String, f64)> = Vec::new();
        for line in text.lines() {
            let tokens: Vec<&str> = line.split_whitespace().collect();
            if let [name, value, _unit] = tokens[..] {
                let fresh = readings.iter().all(|(seen, _)| seen != name);
                if let (true, Ok(value)) = (fresh && !name.starts_with('#'), value.parse()) {
                    readings.push((name.to_string(), value));
                }
            }
        }
        workloads.push((spec.name.to_string(), readings));
    }
    Ok(ResultSet {
        quick: args.quick,
        traced: args.trace,
        seed: args.seed,
        runs: 1,
        workloads,
    })
}

/// `runs` sweeps, reduced to their per-metric medians.
fn sweeps(args: &Args, runs: usize) -> Result<ResultSet, String> {
    let all = (0..runs)
        .map(|_| sweep(args))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ResultSet::median_of(&all))
}

/// Two sets of `runs` sweeps each, taken alternately so that drift of
/// the box falls on both alike, then compared.
fn self_check(args: &Args, runs: usize) -> Result<(), String> {
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for _ in 0..runs {
        a.push(sweep(args)?);
        b.push(sweep(args)?);
    }
    let (a, b) = (ResultSet::median_of(&a), ResultSet::median_of(&b));
    let dir = output_dir();
    a.write(&dir.join("self-check-a.json"))?;
    b.write(&dir.join("self-check-b.json"))?;
    agree::agree(&a, &b)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("galois_benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some((a, b)) = &args.agree {
        agree::agree_files(a, b)
    } else if args.self_check {
        self_check(&args, args.runs.unwrap_or(SELF_CHECK_RUNS))
    } else if args.workload == "all" {
        sweeps(&args, args.runs.unwrap_or(1)).and_then(|set| match &args.out {
            Some(path) => set.write(path),
            None => Ok(()),
        })
    } else if profile_tables(ROOT_MANIFEST) != profile_tables(OWN_MANIFEST) {
        Err(
            "the root Cargo.toml and galois_benchmark/Cargo.toml differ in their \
             [profile.*] tables: the benchmark would measure differently built code"
                .into(),
        )
    } else {
        return match Spec::by_name(&args.workload) {
            Some(spec) if args.trace => run_traced(spec, &args),
            Some(spec) => run_untraced(spec, &args),
            None => {
                let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
                eprintln!(
                    "galois_benchmark: unknown workload {}; one of {}",
                    args.workload,
                    names.join(", ")
                );
                ExitCode::from(2)
            }
        };
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("galois_benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

    #[test]
    fn profile_tables_are_compared_without_comments() {
        let manifest = "[package]\nname = \"x\"\n\n[profile.release]\n# why\nlto = true\n\n\
                        [profile.release.package.y]\nopt-level = 3\n[dependencies]\nz = \"1\"\n";
        assert_eq!(
            profile_tables(manifest),
            [
                "[profile.release]",
                "lto = true",
                "[profile.release.package.y]",
                "opt-level = 3"
            ]
        );
        assert_eq!(profile_tables(ROOT_MANIFEST), profile_tables(OWN_MANIFEST));
    }

    #[test]
    fn driver_and_developer_command_lines_parse() {
        let args = parse("--workload paper_cold --seed 7 --seconds 10 --trace 0").unwrap();
        assert_eq!(
            (args.workload.as_str(), args.seed, args.seconds, args.trace),
            ("paper_cold", 7, 10.0, false)
        );
        assert!(parse("--workload frontend --trace 1").unwrap().trace);
        assert!(parse("--trace --quick").unwrap().trace);
        let defaults = parse("").unwrap();
        assert_eq!(
            (defaults.workload.as_str(), defaults.seed, defaults.quick),
            ("all", 42, false)
        );
        assert_eq!(defaults.seconds, 10.0);
        assert!(parse("--agree a.json b.json").unwrap().agree.is_some());
        assert_eq!(parse("--self-check --runs 5").unwrap().runs, Some(5));
        for bad in [
            "--runs 0",
            "--seed x",
            "--seconds -1",
            "--seconds",
            "--agree a.json",
            "--frobnicate",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
